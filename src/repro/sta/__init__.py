"""The superthreaded architecture: machine, scheduler, configurations."""

from .configs import (
    CONFIG_NAMES,
    TABLE3_ROWS,
    named_config,
    table3_config,
)
from .machine import Machine
from .scheduler import Scheduler

__all__ = [
    "CONFIG_NAMES",
    "TABLE3_ROWS",
    "named_config",
    "table3_config",
    "Machine",
    "Scheduler",
]
