"""Fixture: a tool reads one attribute of the program."""

from repro.store import Store


def describe():
    return Store.describe
