"""Potential high-utility itemset mining over uncertain databases
with positive and negative unit utilities."""

from .miner import MiningConfig, MiningStats, mine
from .model import (
    MinedPattern,
    Pattern,
    Thresholds,
    Transaction,
    UncertainDatabase,
    UtilityTable,
)
from .oracle import brute_force_mine

__version__ = "0.1.0"

__all__ = [
    "MinedPattern",
    "MiningConfig",
    "MiningStats",
    "Pattern",
    "Thresholds",
    "Transaction",
    "UncertainDatabase",
    "UtilityTable",
    "brute_force_mine",
    "mine",
]
