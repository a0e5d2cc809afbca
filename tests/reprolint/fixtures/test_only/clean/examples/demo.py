"""Fixture: an example drives the program."""

from repro.run import main

main()
