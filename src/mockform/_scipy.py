"""scipy's quad, imported on its first call; nothing in mockform calls it.

``special_functions`` binds it as ``special_functions.quad`` because the
benchmark's tracer counts Omega quadratures by patching that name.  Omega
now uses a numpy double-exponential rule, so the counter reads 0; this
module and the binding go when the tracer counts ``omega`` calls instead.
Importing scipy lazily keeps every mockform path on numpy alone.
"""


def quad(func, a, b, **kwargs):
    """scipy.integrate.quad."""
    from scipy.integrate import quad as _quad
    return _quad(func, a, b, **kwargs)
