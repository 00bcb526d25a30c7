"""Per-module deep size of an index, in the style of sdsl-lite's
structure-size reports.

The walk follows ``gc.get_referents`` from the root objects. An instance of
a class defined in a dualtree module belongs to that module, and so does
every object first reached through it; the walk goes breadth first, so an
object shared by two modules belongs to the one that reaches it in fewer
steps. Each object is counted once, by ``sys.getsizeof``. Classes, modules,
functions and the interpreter's shared singletons (small ints, None, bools)
are not part of any index and are skipped. Properties are never evaluated,
so lazily built attributes stay unbuilt.
"""

import gc
import sys
import types
from collections import deque

_CHUNK = 1 << 16  # objects handed to one gc.get_referents call

_SKIP = "skip"
_SKIP_TYPES = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType,
               types.MethodType, types.CodeType)


def _owner_table():
    """{type: module name} for dualtree classes, {type: _SKIP} for the
    kinds of object that no index owns; plain data types are absent."""
    table = dict.fromkeys(_SKIP_TYPES, _SKIP)
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("dualtree."):
            continue
        for obj in vars(module).values():
            if isinstance(obj, type) and obj.__module__ == name:
                table[obj] = name.split(".", 1)[1]
    return table


def _shared_ids():
    """ids of objects that belong to the interpreter rather than to an index."""
    shared = [None, True, False, Ellipsis, NotImplemented, (), ""]
    shared += [int(k) for k in range(-5, 257)]
    return {id(o) for o in shared}


def module_bytes(*roots):
    """{module: bytes} over everything reachable from ``roots``.

    The root objects themselves are charged to their own module when they are
    dualtree instances, and otherwise only traversed (a plain list holding
    several trees costs nothing).
    """
    owners = _owner_table()
    seen = _shared_ids()
    sizes = {}
    queue = deque()  # (module or None, objects first reached through it)
    for root in roots:
        seen.add(id(root))
        queue.append((owners.get(type(root)), [root]))
    while queue:
        mod, objs = queue.popleft()
        if mod is not None:
            sizes[mod] = sizes.get(mod, 0) + sum(map(sys.getsizeof, objs))
        for lo in range(0, len(objs), _CHUNK):
            refs = gc.get_referents(*objs[lo:lo + _CHUNK])
            by_id = dict(zip(map(id, refs), refs))
            fresh = by_id.keys() - seen
            seen.update(fresh)
            plain = []
            for obj in map(by_id.__getitem__, fresh):
                own = owners.get(type(obj))
                if own is None:
                    plain.append(obj)
                elif own is not _SKIP:
                    queue.append((own, [obj]))
            if plain:
                queue.append((mod, plain))
    return sizes
