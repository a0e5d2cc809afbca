"""Fixture: the scenario driver sets collector policy."""

import gc


def execute(walk):
    gc.collect(1)
    gc.disable()
    try:
        return walk()
    finally:
        gc.enable()
