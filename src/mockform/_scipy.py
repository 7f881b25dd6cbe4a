"""The scipy entry points mockform uses, each importing scipy on its first call.

Only the Omega quadrature and Gamma values away from the erfc orders need
scipy.  Importing it lazily keeps ``import mockform``, class-number tables,
Theta and the completed series on numpy alone; scipy's own module cache
makes every later call a dictionary lookup.
"""


def quad(func, a, b, **kwargs):
    """scipy.integrate.quad.  Its IntegrationWarning is attributed to this module."""
    from scipy.integrate import quad as _quad
    return _quad(func, a, b, **kwargs)


def gamma(z):
    """scipy.special.gamma."""
    from scipy.special import gamma as _gamma
    return _gamma(z)


def rgamma(z):
    """scipy.special.rgamma, 1/Gamma(z), zero at the poles of Gamma."""
    from scipy.special import rgamma as _rgamma
    return _rgamma(z)
