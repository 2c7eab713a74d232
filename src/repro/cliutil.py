"""Shared argparse value validators.

Several subcommands (``serve``, ``loadgen``, ``chaos``, ``bench`` and the
``--predict-*`` family) take strictly-positive or non-negative numeric
flags; the validators live here so each front-end stops re-declaring them.
"""

from __future__ import annotations

import argparse

__all__ = ["non_negative_float", "non_negative_int", "positive_float", "positive_int"]


def positive_float(text: str) -> float:
    """Argparse type: a strictly positive float (NaN is rejected)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not value > 0:  # NaN compares false
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


def non_negative_float(text: str) -> float:
    """Argparse type: a float that is zero or more (NaN is rejected)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not value >= 0:  # NaN compares false
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text!r}")
    return value


def positive_int(text: str) -> int:
    """Argparse type: a strictly positive integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


def non_negative_int(text: str) -> int:
    """Argparse type: an integer that is zero or more (0 means "none")."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text!r}")
    return value
