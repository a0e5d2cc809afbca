"""Fixture: the program's entry point."""

from .store import Store


def main():
    store = Store()
    store.keep()
    return len(store)
