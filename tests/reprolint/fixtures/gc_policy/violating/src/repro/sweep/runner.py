"""Fixture: a second collector policy outside the scenario driver."""

import gc
import gc as collector
from gc import disable as pause


def run_cell(cell):
    gc.collect()
    collector.freeze()
    gc.set_threshold(100_000)
    pause()
    try:
        return cell()
    finally:
        gc.enable()
        gc.unfreeze()
