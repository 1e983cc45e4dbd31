"""The base of the library's value classes: points and jets, parsed trees and
curves, germ orders and reports.

A value class names its fields in `_fields`, in the order its init takes
them, and its init writes each into the instance dict
(`self.__dict__[name] = value`).  From that tuple `Record` gives the repr,
`Name(field=value, ...)`, and an equality that holds only with an instance
of the same class, comparing the tuples of their fields; `Value` adds the
hash of that tuple and refuses assignment and deletion.  These are the
methods that a dataclass of those fields, frozen for `Value`, would have;
they are written once here, so importing the library generates no code.
This module imports nothing from hypedal, so every module can import it.
"""


class Record:
    """A value class whose instances may change, and so have no hash."""

    _fields: tuple[str, ...] = ()

    def _field_values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._field_values() == other._field_values()
        return NotImplemented


class Value(Record):
    """A value class whose instances never change once their init has run."""

    def __hash__(self):
        return hash(self._field_values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
