"""Exception types raised by the numerics and geometry layers."""


class ModFrameError(Exception):
    """Base class for every error this library raises deliberately."""


class StepTooSmall(ModFrameError):
    """Finite-difference step so small that rounding noise dominates."""


class TargetOutOfRange(ModFrameError):
    """Inversion target lies outside the image of the bracket."""


class NotMonotone(ModFrameError):
    """Bracketing failed; the function is not strictly increasing."""


class UnresolvedArclength(ModFrameError):
    """A panel's length polynomial misses the panel's Gauss length (the
    curve's speed varies too fast for the arclength table's degree), or
    the curve's length overflows."""


class OutOfRange(ModFrameError):
    """Parameter value outside the curve's declared range, or the end of a
    parameter interval below its start."""


class CurvatureVanishes(ModFrameError):
    """Frenet-frame quantity requested at a point with kappa ~ 0."""


class NonConstantCurvature(ModFrameError):
    """Operation requires constant curvature but |kappa'| exceeds the gate."""


class DegenerateFrame(ModFrameError):
    """The frame degenerates: Darboux data requested where kappa ~ 0, or a
    curve whose speed the frame algebra cannot represent (a power of
    |r'| or of |r' x r''| overflows or underflows)."""


class DegenerateIndicatrix(ModFrameError):
    """Indicatrix speed vanishes; the unit tangent is undefined."""


class TorsionVanishes(ModFrameError):
    """Operation divides by tau but tau ~ 0 at this point."""


class NotOnUnitSphere(ModFrameError):
    """Sampled points are not on the unit sphere."""
