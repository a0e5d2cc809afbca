"""Fixture: a decorator registry."""

BACKENDS = {}


def register_backend(name):
    def deco(factory):
        BACKENDS[name] = factory
        return factory

    return deco
