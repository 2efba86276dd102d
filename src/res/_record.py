"""Value records: the part of :mod:`dataclasses` this package uses, without
loading :mod:`inspect`.  A record compiles one source per class: ``__init__``
(defaults, factories, then ``__post_init__``), ``__eq__`` (same class, then a
tuple of the compared fields) and ``__hash__`` over that tuple, which a
mutable record drops.  Assigning to a frozen record raises AttributeError.
"""

_MISSING = object()


class Field:
    __slots__ = ("name", "default", "default_factory", "compare")

    def __init__(self, *, default=_MISSING, default_factory=_MISSING, compare=True):
        self.name, self.default = "", default
        self.default_factory, self.compare = default_factory, compare


field = Field


def record(cls=None, /, *, frozen=True):
    """Class decorator: a value record over the annotated fields of *cls*."""
    if cls is None:
        return lambda cls: record(cls, frozen=frozen)
    scope = {"_MISSING": _MISSING, "_set": object.__setattr__}
    specs, params, body = [], [], []
    for name in cls.__annotations__:
        spec = cls.__dict__.get(name, _MISSING)
        if not isinstance(spec, Field):
            spec = Field(default=spec)
        elif spec.default is _MISSING:
            delattr(cls, name)
        else:
            setattr(cls, name, spec.default)
        spec.name, value = name, name
        specs.append(spec)
        scope[f"_default_{name}"] = spec.default  # _MISSING under a factory
        if spec.default_factory is not _MISSING:
            scope[f"_factory_{name}"] = spec.default_factory
            value = f"_factory_{name}() if {name} is _MISSING else {name}"
        optional = spec.default is not _MISSING or spec.default_factory is not _MISSING
        params.append(f"{name}=_default_{name}" if optional else name)
        body.append(f"_set(self, {name!r}, {value})" if frozen else f"self.{name} = {value}")
    if "__post_init__" in cls.__dict__:
        body.append("self.__post_init__()")
    mine = "".join(f"self.{spec.name}," for spec in specs if spec.compare)
    theirs = "".join(f"other.{spec.name}," for spec in specs if spec.compare)
    exec(
        f"def __init__(self, {', '.join(params)}):\n {'; '.join(body) or 'pass'}\n"
        "def __eq__(self, other):\n if other.__class__ is self.__class__:\n"
        f"  return ({mine}) == ({theirs})\n return NotImplemented\n"
        f"def __hash__(self):\n return hash(({mine}))\n",
        scope,
    )
    cls.__init__, cls.__eq__ = scope["__init__"], scope["__eq__"]
    cls.__hash__ = scope["__hash__"] if frozen else None
    if frozen:
        cls.__setattr__ = cls.__delattr__ = _refuse
    cls.__record_fields__ = tuple(specs)
    return cls


def _refuse(self, name, *value):
    raise AttributeError(f"cannot assign to field {name!r} of a frozen record")


def fields(record_or_class) -> tuple[Field, ...]:
    return record_or_class.__record_fields__


def replace(obj, /, **changes):
    """A copy of the record *obj* with *changes*, checked again by its ``__init__``."""
    values = {spec.name: getattr(obj, spec.name) for spec in obj.__record_fields__}
    return type(obj)(**{**values, **changes})
