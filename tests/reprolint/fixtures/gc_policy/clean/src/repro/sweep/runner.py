"""Fixture: reading collector state is not setting policy."""

import gc


def tracked() -> int:
    return len(gc.get_objects())


def paused() -> bool:
    return not gc.isenabled()


class Cell:
    def collect(self) -> None:
        pass


def run(cell: Cell) -> None:
    cell.collect()
