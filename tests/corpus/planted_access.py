"""Rule 1 plant: a launch of an undeclared-access kernel hiding an operand.

``undeclared_reduce`` passes container payload to a kernel whose
``accesses=`` declares nothing — gbcheck flags the launch site
(``launch-undeclared-access``).  ``PlantedBackend.undeclared_reduce`` is
the same plant routed through a backend's ``self._launch`` wrapper, the
way cuda_sim launches.  ``declared_reduce`` is the fixed twin: with
``san_reads=`` present, gbsan can see the access, and launching it
against an unresident container raises ``unresident-read`` at runtime.
"""

from repro.gpu.costmodel import KernelWork
from repro.gpu.kernel import Kernel, LaunchConfig, launch
from repro.sanitizer.access import Access


def _no_declared_access(*args, **kwargs):
    """Charge-only declaration: the launch site must declare operands."""
    return Access()


PLANTED_REDUCE = Kernel(
    "planted_reduce",
    lambda values, *a, **k: float(values.sum()),
    lambda values, *a, **k: KernelWork(
        flops=float(values.size), bytes_read=float(values.nbytes), bytes_written=8.0
    ),
    accesses=_no_declared_access,
)


def undeclared_reduce(c, device):
    # BUG: payload operand with no san_reads= — gbsan sees nothing here.
    return launch(
        PLANTED_REDUCE, LaunchConfig.cover(c.nvals), c.values, device=device
    )


def declared_reduce(c, device):
    # Fixed twin: the declaration is what lets gbsan check residency.
    return launch(
        PLANTED_REDUCE, LaunchConfig.cover(c.nvals), c.values,
        device=device, san_reads=(c,),
    )


class PlantedBackend:
    """Launches through a ``_launch`` wrapper, as cuda_sim's backend does."""

    def __init__(self, device):
        self._device = device

    def _launch(self, kernel, cfg, *args, **kw):
        return launch(kernel, cfg, *args, device=self._device, **kw)

    def undeclared_reduce(self, c):
        # BUG: the same hidden payload operand, one wrapper call away.
        return self._launch(PLANTED_REDUCE, LaunchConfig.cover(c.nvals), c.values)
