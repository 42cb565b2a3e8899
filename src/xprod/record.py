"""Value classes without code generation: ``dataclasses`` imports ``inspect``
and compiles each class's methods with ``exec`` as the class is defined, a
fixed cost that every ``xprod`` command paid before doing any work.  ``record``
builds them from closures, and this module imports nothing."""


def record(cls):
    """Make the annotated names of ``cls`` its fields, as a frozen ``dataclass``
    would: ``__init__`` by position or keyword with the class defaults, then
    ``__post_init__``; ``==``, hash and repr by field; assignment and deletion
    refused."""
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    post_init, setattr_ = getattr(cls, "__post_init__", None), object.__setattr__
    positions = tuple(enumerate(names))  # indexing args is cheaper than zipping them

    def values(obj):
        return tuple([getattr(obj, name) for name in names])

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):  # one positional value per field skips this
            given = {**defaults, **dict(zip(names, args)), **kwargs}
            repeated = len(args) > len(names) or set(kwargs) & set(names[:len(args)])
            if repeated or set(given) != set(names):
                raise TypeError(f"{cls.__name__}() takes each of {names} once unless defaulted")
            args = [given[name] for name in names]
        for i, name in positions:
            setattr_(self, name, args[i])
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):  # ``self is other`` first: fields are often one shared object
        if type(other) is not type(self):
            return NotImplemented
        return self is other or values(self) == values(other)

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values(self)))
        return f"{type(self).__qualname__}({fields})"

    def refuse(self, name, value=None):
        raise AttributeError(f"cannot set or delete field {name!r} of a {cls.__name__}")

    cls.__init__, cls.__eq__, cls.__repr__, cls._fields = __init__, __eq__, __repr__, names
    cls.__hash__ = lambda self: hash(values(self))
    cls.__setattr__ = cls.__delattr__ = refuse
    return cls


def replace(obj, **changes):
    """A new record like ``obj`` with ``changes`` applied; ``__post_init__`` runs again."""
    return type(obj)(**{**{name: getattr(obj, name) for name in obj._fields}, **changes})


def unchecked(cls, *values):
    """A record of ``cls`` with one positional value per field, without
    ``__post_init__``: for values whose checks their maker has already made."""
    if len(values) != len(cls._fields):
        raise TypeError(f"{cls.__name__} has {len(cls._fields)} fields")
    obj = object.__new__(cls)
    for name, value in zip(cls._fields, values):
        object.__setattr__(obj, name, value)
    return obj
