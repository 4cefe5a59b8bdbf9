"""Functions whose reach the audit tests know in advance."""


def used():
    return 1


def test_only():
    return 2


def unused():
    return 3


def profiled():
    return 4


def after_profile():
    return 5


def forked():
    return 6


def benchmarked():
    return 7


def spawned():
    return 10


def decorate(fn):
    return fn


@decorate
def decorated():
    return 8


class Box:
    def method(self):
        def inner():
            return 9

        return inner()
