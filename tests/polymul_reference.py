"""Reference product for checking ``blackbox.PolyQuotSpec.mul``: the
schoolbook product over every coefficient pair with a nonzero left factor,
reduced from the top through every coefficient of f below its lead, each
step modulo p."""


def schoolbook_mul(spec, a, b):
    d, p = spec.deg, spec.p
    conv = [0] * (2 * d - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                conv[i + j] += x * y
    for i in range(2 * d - 2, d - 1, -1):
        c = conv[i] % p
        conv[i] = 0
        if c:
            for j in range(d):
                conv[i - d + j] = (conv[i - d + j] - c * spec.f[j]) % p
    return tuple(v % p for v in conv[:d])
