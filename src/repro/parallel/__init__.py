"""Parallel training substrate: locks, caching, threaded SGD, scaling model."""

from repro.parallel.cache import FactorCache
from repro.parallel.locks import RWLock, StripedLockManager
from repro.parallel.simulator import (
    ParallelProfile,
    SimulatedEpoch,
    epoch_time_curve,
    mf_profile,
    simulate_epoch,
    speedup_curve,
    tf_profile,
)
from repro.parallel.trainer import ThreadedEpochStats, ThreadedSGDEngine

__all__ = [
    "RWLock",
    "StripedLockManager",
    "FactorCache",
    "ThreadedSGDEngine",
    "ThreadedEpochStats",
    "ParallelProfile",
    "SimulatedEpoch",
    "simulate_epoch",
    "speedup_curve",
    "epoch_time_curve",
    "mf_profile",
    "tf_profile",
]
