"""Fixture: the scenario driver sets collector policy."""

import gc


def execute(walk):
    if not gc.isenabled():
        return walk()
    gc.collect(1)
    gc.disable()
    try:
        return walk()
    finally:
        gc.enable()
