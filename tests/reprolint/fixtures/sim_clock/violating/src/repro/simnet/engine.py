"""Fixture: the engine owns the clock and may write it."""


class Simulator:
    def __init__(self):
        self.now = 0.0

    def run(self, until):
        self.now = until
