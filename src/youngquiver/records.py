"""The one rule for the package's validating records.

A record is a slotted class whose ``__init__`` checks or normalizes its
fields and stores them with ``object.__setattr__``.  After that no field can
be assigned or deleted, and two records are equal exactly when they are of
the same class and every field is equal.  Defining ``__eq__`` leaves a record
unhashable unless its class defines ``__hash__``.
"""


class Record:
    __slots__ = ()

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"field {name!r} of an immutable {type(self).__name__}")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)
