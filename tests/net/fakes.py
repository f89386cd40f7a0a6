"""Test doubles for the fabrics' fault seam."""

from repro.faults import DELIVER, DROP


class DropIf:
    """Stand-in for :class:`repro.faults.FaultInjector`, assigned to
    ``fabric.injector``: drops exactly the deliveries the test's
    predicate picks from their wire size (all the seam exposes besides
    the addresses), so a test can lose *the Nth data frame* — something
    a probabilistic :class:`~repro.faults.FaultPlan` cannot name."""

    def __init__(self, predicate):
        self.predicate = predicate

    def decide(self, src, dst, nbytes=0):
        return DROP if self.predicate(nbytes) else DELIVER
