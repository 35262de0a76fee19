"""The base of the package's value types.

A value class names its fields in ``__slots__``, and a subclass of a value
class keeps them with ``__slots__ = ()``.  Values of one class with equal
fields are equal and hash alike, assignment raises AttributeError, and
pickling and copying go through the constructor.
"""


class Value:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = vars(cls).get("__slots__")
        if not fields:  # it keeps the fields of its parent
            return
        cls._fields = fields
        # _init(self, *fields) sets each slot through its descriptor, and
        # _of(*fields) builds a value so, without a constructor's checks;
        # compiled per class (as in namedtuple), they take half the time
        # of a loop over the fields
        args = ", ".join(fields)
        sets = "".join(f"\n    set_{name}(self, {name})" for name in fields)
        scope = {f"set_{name}": getattr(cls, name).__set__ for name in fields}
        scope["new"] = object.__new__
        exec(f"def _init(self, {args}):{sets}\n"
             f"def _of(cls, {args}):\n    self = new(cls){sets}\n"
             f"    return self", scope)
        cls._init, cls._of = scope["_init"], classmethod(scope["_of"])
        if "__init__" not in vars(cls):
            cls.__init__ = cls._init

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__qualname__}({fields})"
