"""Sequence construction: binning, sessionization, stay points, databases."""

from .database import (
    SequenceDatabase,
    build_all_databases,
    build_user_database,
    is_subsequence,
)
from .items import Labeler, PlaceRef, TimedItem, make_labeler
from .sessions import DailySession, sessionize_dataset, sessionize_user
from .staypoints import Fix, StayPoint, detect_stay_points
from .timebins import HOURLY, TimeBinning
from .vocab import ItemVocab

__all__ = [
    "DailySession",
    "Fix",
    "HOURLY",
    "ItemVocab",
    "Labeler",
    "PlaceRef",
    "SequenceDatabase",
    "StayPoint",
    "TimeBinning",
    "TimedItem",
    "build_all_databases",
    "build_user_database",
    "detect_stay_points",
    "is_subsequence",
    "make_labeler",
    "sessionize_dataset",
    "sessionize_user",
]
