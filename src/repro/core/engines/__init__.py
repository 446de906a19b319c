"""Execution engines for AEDB-MLS.

Both engines step every population with the same
:class:`~repro.core.localsearch.PopulationSchedule`; they differ in where
populations run and where the archive lives:

* :mod:`~repro.core.engines.serial` — every population in one thread
  around a local archive; the deterministic reference semantics used by
  the test suite;
* :mod:`~repro.core.engines.processes` — one OS process per population,
  with the archive hosted by the parent and reached by message passing —
  the paper's hybrid deployment model.
"""

from repro.core.engines.processes import ProcessEngine
from repro.core.engines.serial import SerialEngine

ENGINES = {
    "serial": SerialEngine,
    "processes": ProcessEngine,
}

__all__ = ["SerialEngine", "ProcessEngine", "ENGINES"]
