"""AST-based contract extraction: dataflow semantics *before* the run.

A :class:`~repro.workflow.model.Task` body is an opaque callable; this
module recovers its access contract by abstract interpretation of the
function's source.  The interpreter walks the AST with a small
environment seeded from the function's closure cells and globals, so
parameter objects (the frozen ``*Params`` dataclasses every bundled
workload closes over) resolve to their real values and loops like
``for i in range(p.n_files)`` unroll with concrete trip counts.

What executes and what doesn't:

- Pure *descriptive* expressions are evaluated for real: constants,
  f-strings, arithmetic, comprehensions, parameter attributes, methods
  of frozen dataclasses, ``Selection`` constructors, and module-level
  helpers defined next to the task function (``_shard``, ``_sizes`` …
  — assumed pure by convention).
- I/O calls are never executed.  ``rt.open``/``rt.open_netcdf`` produce
  abstract file handles; dataset operations on those handles
  (``create_dataset``, ``__getitem__``, ``read``, ``write``,
  ``create_variable``, ``write_record`` …) are *recorded* as
  :class:`~repro.workflow.contracts.ContractAccess` entries.
- Everything else (numpy math, unresolvable names) evaluates to an
  ``UNKNOWN`` sentinel that propagates; accesses whose file or dataset
  name stays unknown are dropped and the contract is marked inexact.

Branches with unevaluable conditions and loops with unknown trip counts
are walked symbolically: their accesses are recorded but flagged
``conditional``, so the drift checker never demands them.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from dataclasses import dataclass, field, is_dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.hdf5 import Selection
from repro.workflow.contracts import (
    ContractAccess,
    TaskContract,
    normalize_dataset,
)
from repro.workflow.model import Task, Workflow

__all__ = [
    "UNKNOWN",
    "infer_contract",
    "WorkflowContracts",
    "extract_workflow_contracts",
]


class _Unknown:
    """Singleton for statically unresolvable values."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "<unknown>"

    def __bool__(self) -> bool:  # pragma: no cover - guarded at use sites
        raise TypeError("truth value of an unresolved static value")


UNKNOWN = _Unknown()


def _is_concrete(value) -> bool:
    """Deep check: no UNKNOWN / abstract handle anywhere inside."""
    if value is UNKNOWN or isinstance(value, (_Handle, _BoundOp, _UserFn)):
        return False
    if isinstance(value, (tuple, list, set, frozenset)):
        return all(_is_concrete(v) for v in value)
    if isinstance(value, dict):
        return all(_is_concrete(k) and _is_concrete(v)
                   for k, v in value.items())
    return True


# ----------------------------------------------------------------------
# Abstract values
# ----------------------------------------------------------------------
class _Handle:
    """Base class for abstract I/O values."""


class _RuntimeVal(_Handle):
    """The task's ``TaskRuntime`` parameter."""


@dataclass
class _FileVal(_Handle):
    """An abstract instrumented file handle."""

    path: Any  # str or UNKNOWN
    mode: Any = "r"
    kind: str = "hdf5"  # or "netcdf"
    #: netCDF dimension table: name -> length (None = unlimited/record).
    dims: Dict[str, Optional[int]] = field(default_factory=dict)


@dataclass
class _ObjectVal(_Handle):
    """An abstract dataset / group / netCDF-variable handle."""

    file: _FileVal
    name: Any  # root-anchored str or UNKNOWN
    role: str = "dataset"  # "dataset" | "group" | "variable"
    extent: Optional[Tuple[int, ...]] = None
    record_elems: Optional[int] = None  # netCDF: elements per record


@dataclass
class _BoundOp:
    """An attribute of an abstract handle, awaiting a call."""

    target: Any
    attr: str


@dataclass
class _UserFn:
    """A Python function the interpreter may inline."""

    fn: Any


class _Return(Exception):
    def __init__(self, value):
        self.value = value


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class _Budget(Exception):
    """Interpreter step budget exhausted."""


_SAFE_BUILTINS = {
    "range": range, "len": len, "max": max, "min": min, "abs": abs,
    "int": int, "float": float, "str": str, "bool": bool, "bytes": bytes,
    "enumerate": enumerate, "zip": zip, "sorted": sorted, "sum": sum,
    "tuple": tuple, "list": list, "dict": dict, "set": set,
    "round": round, "divmod": divmod, "reversed": reversed,
    "isinstance": isinstance, "repr": repr, "format": format,
}
_SAFE_BUILTIN_FUNCS = set(_SAFE_BUILTINS.values())

#: Methods of plain containers we may call with unresolved arguments
#: (mutators whose effect on our concrete environment is still sound).
_CONTAINER_MUTATORS = ("append", "extend", "add", "update", "setdefault")

#: File-handle method names that carry no dataflow information.
_FILE_NOOPS = ("close", "set_att", "get_att", "enddef", "flush", "keys")


def _frozen_params(obj) -> bool:
    return (is_dataclass(obj) and not isinstance(obj, type)
            and type(obj).__dataclass_params__.frozen)


def _selection_elements(sel) -> Optional[int]:
    if isinstance(sel, Selection) and sel.slabs is not None:
        n = 1
        for _, count in sel.slabs:
            n *= count
        return n
    return None


def _selection_slabs(sel) -> Optional[Tuple[Tuple[int, int], ...]]:
    if isinstance(sel, Selection) and sel.slabs is not None:
        return sel.slabs
    return None


def _shape_tuple(value) -> Optional[Tuple[int, ...]]:
    """A concrete shape tuple, or None when any dim is unresolved."""
    if isinstance(value, int):
        value = (value,)
    if not isinstance(value, (tuple, list)):
        return None
    out = []
    for dim in value:
        if not isinstance(dim, int):
            return None
        out.append(dim)
    return tuple(out)


def _elements_of(shape: Optional[Tuple[int, ...]]) -> Optional[int]:
    if shape is None:
        return None
    n = 1
    for dim in shape:
        n *= dim
    return n


# ----------------------------------------------------------------------
# The recorder: raw access events -> aggregated contract
# ----------------------------------------------------------------------
@dataclass
class _Recorder:
    events: Dict[tuple, int] = field(default_factory=dict)
    order: List[tuple] = field(default_factory=list)
    file_opens: Dict[str, int] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    exact: bool = True

    def note(self, text: str) -> None:
        self.exact = False
        if text not in self.notes:
            self.notes.append(text)

    def open_file(self, path, conditional: bool) -> None:
        if isinstance(path, str):
            self.file_opens[path] = self.file_opens.get(path, 0) + 1
        else:
            self.note("a file open's path could not be resolved")

    def access(self, op: str, file, dataset, *, elements=None, extent=None,
               dtype="", layout="", select=None, conditional=False,
               known_count=True) -> None:
        if not isinstance(file, str) or not isinstance(dataset, str):
            self.note(f"a dataset {op} could not be resolved to a "
                      "(file, dataset) pair")
            return
        if not isinstance(elements, int):
            elements = None
        key = (op, file, normalize_dataset(dataset), elements, extent,
               dtype, layout, select, conditional, known_count)
        if key not in self.events:
            self.events[key] = 0
            self.order.append(key)
        self.events[key] += 1

    def contract(self, task_name: str) -> TaskContract:
        accesses = []
        for key in self.order:
            (op, file, dataset, elements, extent, dtype, layout, select,
             conditional, known_count) = key
            accesses.append(ContractAccess(
                op=op, file=file, dataset=dataset,
                count=self.events[key] if known_count else 0,
                elements=elements, extent=extent, dtype=dtype,
                layout=layout, select=select,
                conditional=conditional,
                exact=self.exact and known_count,
            ))
        return TaskContract(task=task_name, accesses=accesses,
                            source="inferred", exact=self.exact,
                            notes=list(self.notes),
                            file_opens=dict(self.file_opens))


# ----------------------------------------------------------------------
# Parsed task bodies
# ----------------------------------------------------------------------
_NO_SOURCE = object()
_NOT_A_FUNCTION = object()

#: Parsed ``def`` of each function body, keyed by its code object.  Code
#: objects are immutable and every closure made by one ``def`` shares
#: one (pyflextrkr's 21 tasks have 9), so each body is read and parsed
#: once per process.  The interpreter never mutates the tree.
_PARSED: Dict[Any, Any] = {}


def _function_def(fn) -> Any:
    """``fn``'s parsed ``FunctionDef``, or ``_NO_SOURCE`` /
    ``_NOT_A_FUNCTION`` when it cannot be interpreted."""
    code = getattr(fn, "__code__", None)
    node = _PARSED.get(code) if code is not None else None
    if node is None:
        try:
            tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
        except (OSError, TypeError, SyntaxError, IndentationError):
            node = _NO_SOURCE
        else:
            node = tree.body[0]
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                node = _NOT_A_FUNCTION
        if code is not None:
            _PARSED[code] = node
    return node


# ----------------------------------------------------------------------
# The interpreter
# ----------------------------------------------------------------------
class _Interp:
    def __init__(self, recorder: _Recorder, max_ops: int = 500_000):
        self.rec = recorder
        self.max_ops = max_ops
        self.ops = 0
        self.conditional_depth = 0
        #: (file_path, dataset) -> extent tuple created in this task.
        self.created: Dict[Tuple[str, str], Tuple[int, ...]] = {}
        self.depth = 0

    # -- bookkeeping ---------------------------------------------------
    def _tick(self) -> None:
        self.ops += 1
        if self.ops > self.max_ops:
            raise _Budget()

    @property
    def conditional(self) -> bool:
        return self.conditional_depth > 0

    # -- function entry ------------------------------------------------
    def run_function(self, fn, args: Sequence[Any]) -> Any:
        """Interpret ``fn``'s body with ``args`` bound to its params."""
        if self.depth > 8:
            self.rec.note("helper call nesting too deep to follow")
            return UNKNOWN
        node = _function_def(fn)
        if node is _NO_SOURCE:
            self.rec.note(f"source of {getattr(fn, '__name__', fn)!r} "
                          "is unavailable")
            return UNKNOWN
        if node is _NOT_A_FUNCTION:
            self.rec.note("task body is not a plain function")
            return UNKNOWN
        env: Dict[str, Any] = {}
        code = fn.__code__
        if fn.__closure__:
            for name, cell in zip(code.co_freevars, fn.__closure__):
                try:
                    env[name] = cell.cell_contents
                except ValueError:
                    env[name] = UNKNOWN
        params = [a.arg for a in node.args.args]
        defaults = node.args.defaults
        for i, name in enumerate(params):
            if i < len(args):
                env[name] = args[i]
            else:
                # Fill from defaults where possible.
                j = i - (len(params) - len(defaults))
                env[name] = (self.eval(defaults[j], env, fn.__globals__)
                             if 0 <= j < len(defaults) else UNKNOWN)
        self.depth += 1
        try:
            self.exec_body(node.body, env, fn.__globals__)
        except _Return as ret:
            return ret.value
        finally:
            self.depth -= 1
        return None

    # -- statements ----------------------------------------------------
    def exec_body(self, body, env, globs) -> None:
        for stmt in body:
            self.exec_stmt(stmt, env, globs)

    def exec_stmt(self, stmt, env, globs) -> None:
        self._tick()
        if isinstance(stmt, ast.Expr):
            self.eval(stmt.value, env, globs)
        elif isinstance(stmt, ast.Assign):
            value = self.eval(stmt.value, env, globs)
            for target in stmt.targets:
                self.bind(target, value, env, globs)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self.bind(stmt.target,
                          self.eval(stmt.value, env, globs), env, globs)
        elif isinstance(stmt, ast.AugAssign):
            cur = self.eval(stmt.target, env, globs)
            delta = self.eval(stmt.value, env, globs)
            result = self._binop(stmt.op, cur, delta)
            self.bind(stmt.target, result, env, globs)
        elif isinstance(stmt, ast.For):
            self._exec_for(stmt, env, globs)
        elif isinstance(stmt, ast.While):
            self._exec_while(stmt, env, globs)
        elif isinstance(stmt, ast.If):
            self._exec_if(stmt, env, globs)
        elif isinstance(stmt, ast.With):
            for item in stmt.items:
                ctx = self.eval(item.context_expr, env, globs)
                if item.optional_vars is not None:
                    self.bind(item.optional_vars, ctx, env, globs)
            self.exec_body(stmt.body, env, globs)
        elif isinstance(stmt, ast.Return):
            raise _Return(self.eval(stmt.value, env, globs)
                          if stmt.value is not None else None)
        elif isinstance(stmt, ast.Break):
            raise _Break()
        elif isinstance(stmt, ast.Continue):
            raise _Continue()
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            env[stmt.name] = UNKNOWN  # nested defs: not followed
            self.rec.note(f"nested function {stmt.name!r} is not followed")
        elif isinstance(stmt, ast.Try):
            self.exec_body(stmt.body, env, globs)
            self.conditional_depth += 1
            try:
                for handler in stmt.handlers:
                    self.exec_body(handler.body, env, globs)
            finally:
                self.conditional_depth -= 1
            self.exec_body(stmt.finalbody, env, globs)
        elif isinstance(stmt, ast.Assert):
            self.eval(stmt.test, env, globs)
        elif isinstance(stmt, (ast.Pass, ast.Import, ast.ImportFrom,
                               ast.Global, ast.Nonlocal, ast.Delete,
                               ast.Raise)):
            pass
        else:
            self.rec.note(f"unhandled statement {type(stmt).__name__}")

    def _exec_for(self, stmt: ast.For, env, globs) -> None:
        iterable = self.eval(stmt.iter, env, globs)
        items = None
        if _is_concrete(iterable):
            try:
                items = list(iterable)
            except TypeError:
                items = None
        elif isinstance(iterable, (list, tuple)):
            # Concrete container with unresolved elements: iterate anyway.
            items = list(iterable)
        if items is None:
            self.rec.note("a loop's trip count could not be resolved")
            self.conditional_depth += 1
            try:
                self.bind(stmt.target, UNKNOWN, env, globs)
                self.exec_body(stmt.body, env, globs)
            except (_Break, _Continue):
                pass
            finally:
                self.conditional_depth -= 1
            self.exec_body(stmt.orelse, env, globs)
            return
        for item in items:
            self._tick()
            self.bind(stmt.target, item, env, globs)
            try:
                self.exec_body(stmt.body, env, globs)
            except _Break:
                break
            except _Continue:
                continue
        else:
            self.exec_body(stmt.orelse, env, globs)

    def _exec_while(self, stmt: ast.While, env, globs) -> None:
        # A while loop's trip count is data-dependent: one symbolic pass.
        self.eval(stmt.test, env, globs)
        self.rec.note("a while loop was walked symbolically")
        self.conditional_depth += 1
        try:
            self.exec_body(stmt.body, env, globs)
        except (_Break, _Continue):
            pass
        finally:
            self.conditional_depth -= 1
        self.exec_body(stmt.orelse, env, globs)

    def _exec_if(self, stmt: ast.If, env, globs) -> None:
        test = self.eval(stmt.test, env, globs)
        if _is_concrete(test):
            try:
                branch = stmt.body if test else stmt.orelse
            except Exception:
                branch = None
            if branch is not None:
                self.exec_body(branch, env, globs)
                return
        self.conditional_depth += 1
        try:
            self.exec_body(stmt.body, env, globs)
            self.exec_body(stmt.orelse, env, globs)
        finally:
            self.conditional_depth -= 1

    def bind(self, target, value, env, globs) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = value
        elif isinstance(target, (ast.Tuple, ast.List)):
            elts = target.elts
            values = None
            if isinstance(value, (tuple, list)) and len(value) == len(elts):
                values = list(value)
            for i, sub in enumerate(elts):
                self.bind(sub, values[i] if values is not None else UNKNOWN,
                          env, globs)
        elif isinstance(target, ast.Subscript):
            base = self.eval(target.value, env, globs)
            idx = self.eval(target.slice, env, globs)
            if isinstance(base, _ObjectVal):
                self._record_object_io(base, "write", selection=None)
            elif isinstance(base, (dict, list)) and _is_concrete(idx):
                try:
                    base[idx] = value
                except (KeyError, IndexError, TypeError):
                    pass
        elif isinstance(target, ast.Attribute):
            self.eval(target.value, env, globs)
        elif isinstance(target, ast.Starred):
            self.bind(target.value, UNKNOWN, env, globs)

    # -- expressions ---------------------------------------------------
    def eval(self, node, env, globs) -> Any:
        self._tick()
        method = getattr(self, "_eval_" + type(node).__name__, None)
        if method is None:
            return UNKNOWN
        return method(node, env, globs)

    def _eval_Constant(self, node, env, globs):
        return node.value

    def _eval_Name(self, node, env, globs):
        if node.id in env:
            return env[node.id]
        if node.id in globs:
            return globs[node.id]
        if node.id in _SAFE_BUILTINS:
            return _SAFE_BUILTINS[node.id]
        return UNKNOWN

    def _eval_Tuple(self, node, env, globs):
        return tuple(self.eval(e, env, globs) for e in node.elts)

    def _eval_List(self, node, env, globs):
        return [self.eval(e, env, globs) for e in node.elts]

    def _eval_Set(self, node, env, globs):
        values = [self.eval(e, env, globs) for e in node.elts]
        try:
            return set(values)
        except TypeError:
            return UNKNOWN

    def _eval_Dict(self, node, env, globs):
        out = {}
        for k, v in zip(node.keys, node.values):
            value = self.eval(v, env, globs)
            if k is None:  # ** spread
                if isinstance(value, dict):
                    out.update(value)
                else:
                    return UNKNOWN
                continue
            key = self.eval(k, env, globs)
            if not _is_concrete(key):
                return UNKNOWN
            out[key] = value
        return out

    def _eval_JoinedStr(self, node, env, globs):
        parts = []
        for piece in node.values:
            if isinstance(piece, ast.Constant):
                parts.append(str(piece.value))
                continue
            value = self.eval(piece.value, env, globs)
            if not _is_concrete(value):
                return UNKNOWN
            spec = ""
            if piece.format_spec is not None:
                spec = self.eval(piece.format_spec, env, globs)
                if not isinstance(spec, str):
                    return UNKNOWN
            if piece.conversion == 114:
                value = repr(value)
            elif piece.conversion == 115:
                value = str(value)
            try:
                parts.append(format(value, spec))
            except (ValueError, TypeError):
                return UNKNOWN
        return "".join(parts)

    def _eval_FormattedValue(self, node, env, globs):  # bare f-string part
        return self._eval_JoinedStr(
            ast.JoinedStr(values=[node]), env, globs)

    def _eval_Attribute(self, node, env, globs):
        base = self.eval(node.value, env, globs)
        attr = node.attr
        if isinstance(base, _RuntimeVal):
            if attr in ("open", "open_netcdf", "compute", "local_path"):
                return _BoundOp(base, attr)
            self.rec.note(f"direct runtime attribute access rt.{attr}")
            return UNKNOWN
        if isinstance(base, _FileVal):
            return _BoundOp(base, attr)
        if isinstance(base, _ObjectVal):
            if attr == "shape":
                self._record_object_io(base, "open")
                return base.extent if base.extent is not None else UNKNOWN
            if attr in ("size", "nbytes", "dtype", "name", "chunks",
                        "layout_name", "attrs"):
                self._record_object_io(base, "open")
                return UNKNOWN
            return _BoundOp(base, attr)
        if isinstance(base, _BoundOp) or base is UNKNOWN:
            return UNKNOWN
        try:
            return getattr(base, attr)
        except Exception:
            return UNKNOWN

    def _eval_Subscript(self, node, env, globs):
        base = self.eval(node.value, env, globs)
        idx = self.eval(node.slice, env, globs)
        if isinstance(base, _FileVal):
            return self._object_lookup(base, idx)
        if isinstance(base, _ObjectVal):
            if base.role == "group":
                return self._object_lookup(base.file, idx, parent=base)
            self._record_object_io(base, "read", selection=None)
            return UNKNOWN
        if base is UNKNOWN or not _is_concrete(idx):
            return UNKNOWN
        try:
            return base[idx]
        except Exception:
            return UNKNOWN

    def _eval_Slice(self, node, env, globs):
        lo = self.eval(node.lower, env, globs) if node.lower else None
        hi = self.eval(node.upper, env, globs) if node.upper else None
        step = self.eval(node.step, env, globs) if node.step else None
        if all(v is None or isinstance(v, int) for v in (lo, hi, step)):
            return slice(lo, hi, step)
        return UNKNOWN

    def _eval_Index(self, node, env, globs):  # pragma: no cover - py<3.9
        return self.eval(node.value, env, globs)

    def _eval_Starred(self, node, env, globs):
        return self.eval(node.value, env, globs)

    def _eval_UnaryOp(self, node, env, globs):
        operand = self.eval(node.operand, env, globs)
        if not _is_concrete(operand):
            return UNKNOWN
        try:
            if isinstance(node.op, ast.USub):
                return -operand
            if isinstance(node.op, ast.UAdd):
                return +operand
            if isinstance(node.op, ast.Not):
                return not operand
            if isinstance(node.op, ast.Invert):
                return ~operand
        except Exception:
            return UNKNOWN
        return UNKNOWN

    def _binop(self, op, left, right):
        if not (_is_concrete(left) and _is_concrete(right)):
            return UNKNOWN
        import operator as _op

        table = {
            ast.Add: _op.add, ast.Sub: _op.sub, ast.Mult: _op.mul,
            ast.Div: _op.truediv, ast.FloorDiv: _op.floordiv,
            ast.Mod: _op.mod, ast.Pow: _op.pow, ast.LShift: _op.lshift,
            ast.RShift: _op.rshift, ast.BitOr: _op.or_,
            ast.BitAnd: _op.and_, ast.BitXor: _op.xor,
        }
        fn = table.get(type(op))
        if fn is None:
            return UNKNOWN
        try:
            return fn(left, right)
        except Exception:
            return UNKNOWN

    def _eval_BinOp(self, node, env, globs):
        return self._binop(node.op,
                           self.eval(node.left, env, globs),
                           self.eval(node.right, env, globs))

    def _eval_BoolOp(self, node, env, globs):
        result = None
        for value_node in node.values:
            value = self.eval(value_node, env, globs)
            if not _is_concrete(value):
                return UNKNOWN
            result = value
            if isinstance(node.op, ast.And) and not value:
                return value
            if isinstance(node.op, ast.Or) and value:
                return value
        return result

    def _eval_Compare(self, node, env, globs):
        import operator as _op

        table = {
            ast.Eq: _op.eq, ast.NotEq: _op.ne, ast.Lt: _op.lt,
            ast.LtE: _op.le, ast.Gt: _op.gt, ast.GtE: _op.ge,
            ast.In: lambda a, b: a in b,
            ast.NotIn: lambda a, b: a not in b,
            ast.Is: _op.is_, ast.IsNot: _op.is_not,
        }
        left = self.eval(node.left, env, globs)
        for op, comparator in zip(node.ops, node.comparators):
            right = self.eval(comparator, env, globs)
            if not (_is_concrete(left) and _is_concrete(right)):
                return UNKNOWN
            fn = table.get(type(op))
            if fn is None:
                return UNKNOWN
            try:
                if not fn(left, right):
                    return False
            except Exception:
                return UNKNOWN
            left = right
        return True

    def _eval_IfExp(self, node, env, globs):
        test = self.eval(node.test, env, globs)
        if _is_concrete(test):
            try:
                chosen = node.body if test else node.orelse
            except Exception:
                chosen = None
            if chosen is not None:
                return self.eval(chosen, env, globs)
        self.conditional_depth += 1
        try:
            self.eval(node.body, env, globs)
            self.eval(node.orelse, env, globs)
        finally:
            self.conditional_depth -= 1
        return UNKNOWN

    def _eval_Lambda(self, node, env, globs):
        return UNKNOWN

    def _comp_frames(self, generators, env, globs):
        """Yield environments for (single- or multi-) generator comps."""
        def expand(frames, gen):
            out = []
            for frame in frames:
                iterable = self.eval(gen.iter, frame, globs)
                if isinstance(iterable, (list, tuple, range, set, dict)):
                    items = list(iterable)
                elif _is_concrete(iterable):
                    try:
                        items = list(iterable)
                    except TypeError:
                        return None
                else:
                    return None
                for item in items:
                    self._tick()
                    sub = dict(frame)
                    self.bind(gen.target, item, sub, globs)
                    keep = True
                    for cond in gen.ifs:
                        test = self.eval(cond, sub, globs)
                        if not _is_concrete(test):
                            return None
                        if not test:
                            keep = False
                            break
                    if keep:
                        out.append(sub)
            return out

        frames = [dict(env)]
        for gen in generators:
            frames = expand(frames, gen)
            if frames is None:
                return None
        return frames

    def _eval_ListComp(self, node, env, globs):
        frames = self._comp_frames(node.generators, env, globs)
        if frames is None:
            return UNKNOWN
        return [self.eval(node.elt, frame, globs) for frame in frames]

    def _eval_SetComp(self, node, env, globs):
        result = self._eval_ListComp(
            ast.ListComp(elt=node.elt, generators=node.generators),
            env, globs)
        if result is UNKNOWN:
            return UNKNOWN
        try:
            return set(result)
        except TypeError:
            return UNKNOWN

    def _eval_GeneratorExp(self, node, env, globs):
        return self._eval_ListComp(
            ast.ListComp(elt=node.elt, generators=node.generators),
            env, globs)

    def _eval_DictComp(self, node, env, globs):
        frames = self._comp_frames(node.generators, env, globs)
        if frames is None:
            return UNKNOWN
        out = {}
        for frame in frames:
            key = self.eval(node.key, frame, globs)
            if not _is_concrete(key):
                return UNKNOWN
            out[key] = self.eval(node.value, frame, globs)
        return out

    # -- calls ---------------------------------------------------------
    def _eval_Call(self, node, env, globs):
        func = self.eval(node.func, env, globs)

        # Dataset/file operations must not evaluate their data payloads;
        # everything else evaluates every argument (recording the I/O
        # side effects of nested reads).
        skip_positional = set()
        skip_keywords = set()
        if isinstance(func, _BoundOp):
            if func.attr in ("write", "write_record"):
                skip_positional = ({0} if func.attr == "write" else {1})
            if func.attr == "create_dataset":
                skip_keywords = {"data"}

        args = []
        for i, arg_node in enumerate(node.args):
            if isinstance(arg_node, ast.Starred):
                spread = self.eval(arg_node.value, env, globs)
                if isinstance(spread, (list, tuple)):
                    args.extend(spread)
                else:
                    args.append(UNKNOWN)
                continue
            if i in skip_positional:
                args.append(_DataArg(arg_node))
            else:
                args.append(self.eval(arg_node, env, globs))
        kwargs = {}
        for kw in node.keywords:
            if kw.arg is None:  # ** spread
                spread = self.eval(kw.value, env, globs)
                if isinstance(spread, dict):
                    for k, v in spread.items():
                        if isinstance(k, str):
                            kwargs[k] = v
                else:
                    self.rec.note("a ** call spread could not be resolved")
                continue
            if kw.arg in skip_keywords:
                kwargs[kw.arg] = _DataArg(kw.value)
            else:
                kwargs[kw.arg] = self.eval(kw.value, env, globs)

        if isinstance(func, _BoundOp):
            return self._dispatch_handle_call(func, args, kwargs)
        return self._call_concrete(func, args, kwargs)

    def _call_concrete(self, func, args, kwargs):
        if func is UNKNOWN or isinstance(func, (_Handle, _DataArg)):
            return UNKNOWN
        deep_ok = (all(_is_concrete(a) for a in args)
                   and all(_is_concrete(v) for v in kwargs.values()))

        # Selection constructors are descriptive, not I/O.
        hyperslab = getattr(Selection, "hyperslab", None)
        sel_all = getattr(Selection, "all", None)
        if func in (hyperslab, sel_all):
            if deep_ok:
                try:
                    return func(*args, **kwargs)
                except Exception:
                    return UNKNOWN
            return UNKNOWN

        if func in _SAFE_BUILTIN_FUNCS:
            if deep_ok:
                try:
                    return func(*args, **kwargs)
                except Exception:
                    return UNKNOWN
            return UNKNOWN

        # Bound methods of parameter dataclasses (pure by convention)
        # and of plain containers.
        self_obj = getattr(func, "__self__", None)
        if self_obj is not None:
            if _frozen_params(self_obj) and deep_ok:
                try:
                    return func(*args, **kwargs)
                except Exception:
                    return UNKNOWN
            if isinstance(self_obj, (list, set, dict)) and \
                    getattr(func, "__name__", "") in _CONTAINER_MUTATORS:
                try:
                    return func(*args, **kwargs)
                except Exception:
                    return UNKNOWN
            if isinstance(self_obj, (str, bytes, tuple, list, dict, set,
                                     int, float, range)) and deep_ok:
                try:
                    return func(*args, **kwargs)
                except Exception:
                    return UNKNOWN
            return UNKNOWN

        if inspect.isfunction(func):
            module = getattr(func, "__module__", "") or ""
            if deep_ok and (module == self._task_module
                            or module.startswith("repro.workloads")):
                try:
                    return func(*args, **kwargs)
                except Exception:
                    return UNKNOWN
            # Inline helpers that receive abstract handles (or whose
            # arguments didn't fully resolve).
            if any(isinstance(a, _Handle) for a in args) or not deep_ok:
                if module == self._task_module or \
                        module.startswith("repro.workloads"):
                    return self.run_function(func, args)
            return UNKNOWN
        return UNKNOWN

    _task_module = ""  # set by infer_contract

    # -- handle-call dispatch: where accesses are recorded -------------
    def _object_lookup(self, file: _FileVal, name,
                       parent: Optional[_ObjectVal] = None) -> _ObjectVal:
        prefix = ""
        if parent is not None and isinstance(parent.name, str):
            prefix = parent.name
        if isinstance(name, str):
            full = normalize_dataset(prefix + "/" + name.strip("/"))
        else:
            full = UNKNOWN
        obj = _ObjectVal(file=file, name=full)
        if isinstance(full, str) and isinstance(file.path, str):
            obj.extent = self.created.get((file.path, full))
            self.rec.access("open", file.path, full,
                            conditional=self.conditional,
                            known_count=not self.conditional)
        elif full is UNKNOWN:
            self.rec.note("a dataset lookup name could not be resolved")
        return obj

    def _record_object_io(self, obj: _ObjectVal, op: str,
                          selection=None) -> None:
        file_path = obj.file.path if isinstance(obj.file, _FileVal) else UNKNOWN
        elements = _selection_elements(selection)
        select = _selection_slabs(selection)
        if elements is None:
            if obj.role == "variable" and op in ("read", "write"):
                elements = _elements_of(obj.extent)
            elif obj.extent is not None:
                elements = _elements_of(obj.extent)
        self.rec.access(op, file_path, obj.name, elements=elements,
                        select=select, conditional=self.conditional,
                        known_count=not self.conditional)

    def _dispatch_handle_call(self, bound: _BoundOp, args, kwargs):
        target, attr = bound.target, bound.attr

        # ---- TaskRuntime ----
        if isinstance(target, _RuntimeVal):
            if attr in ("open", "open_netcdf"):
                path = args[0] if args else kwargs.get("path", UNKNOWN)
                mode = args[1] if len(args) > 1 else kwargs.get("mode", "r")
                handle = _FileVal(
                    path=path if isinstance(path, str) else UNKNOWN,
                    mode=mode if isinstance(mode, str) else UNKNOWN,
                    kind="hdf5" if attr == "open" else "netcdf",
                )
                self.rec.open_file(handle.path, self.conditional)
                return handle
            if attr == "compute":
                return None
            if attr == "local_path":
                self.rec.note("rt.local_path resolves per node at runtime")
                return UNKNOWN
            return UNKNOWN

        # ---- file / group handles ----
        if isinstance(target, _FileVal):
            return self._dispatch_file_call(target, attr, args, kwargs)
        if isinstance(target, _ObjectVal):
            if target.role == "group" and attr in ("create_dataset",
                                                   "create_group",
                                                   "require_group"):
                return self._dispatch_file_call(
                    target.file, attr, args, kwargs, parent=target)
            return self._dispatch_object_call(target, attr, args, kwargs)
        return UNKNOWN

    def _dispatch_file_call(self, file: _FileVal, attr, args, kwargs,
                            parent: Optional[_ObjectVal] = None):
        if attr in _FILE_NOOPS:
            return None
        if attr == "create_dataset":
            name = args[0] if args else kwargs.get("path", UNKNOWN)
            shape = args[1] if len(args) > 1 else kwargs.get("shape")
            dtype = args[2] if len(args) > 2 else kwargs.get("dtype", "")
            data = kwargs.get("data")
            layout = kwargs.get("layout", "")
            extent = _shape_tuple(shape)
            prefix = ""
            if parent is not None and isinstance(parent.name, str):
                prefix = parent.name
            if isinstance(name, str):
                full = normalize_dataset(prefix + "/" + name.strip("/"))
            else:
                full = UNKNOWN
            has_data = data is not None and not (
                isinstance(data, ast.Constant) and data.value is None)
            elements = _elements_of(extent) if has_data else 0
            if isinstance(full, str) and isinstance(file.path, str) \
                    and extent is not None:
                self.created[(file.path, full)] = extent
            self.rec.access(
                "create", file.path, full, elements=elements,
                extent=extent,
                dtype=dtype if isinstance(dtype, str) else "",
                layout=layout if isinstance(layout, str) else "",
                conditional=self.conditional,
                known_count=not self.conditional)
            return _ObjectVal(file=file, name=full, extent=extent)
        if attr in ("create_group", "require_group"):
            name = args[0] if args else UNKNOWN
            prefix = ""
            if parent is not None and isinstance(parent.name, str):
                prefix = parent.name
            full = (normalize_dataset(prefix + "/" + name.strip("/"))
                    if isinstance(name, str) else UNKNOWN)
            return _ObjectVal(file=file, name=full, role="group")
        if attr == "create_dimension":
            name = args[0] if args else UNKNOWN
            length = args[1] if len(args) > 1 else kwargs.get("length")
            if isinstance(name, str):
                file.dims[name] = length if isinstance(length, int) else None
            return None
        if attr == "create_variable":
            name = args[0] if args else UNKNOWN
            dims = args[2] if len(args) > 2 else kwargs.get("dims")
            full = normalize_dataset(name) if isinstance(name, str) else UNKNOWN
            extent = None
            record_elems = None
            if isinstance(dims, (list, tuple)):
                sizes = [file.dims.get(d) if isinstance(d, str) else None
                         for d in dims]
                if all(isinstance(s, int) for s in sizes):
                    extent = tuple(sizes)
                fixed = [s for s in sizes[1:]]
                if fixed and all(isinstance(s, int) for s in fixed):
                    record_elems = 1
                    for s in fixed:
                        record_elems *= s
            dtype = args[1] if len(args) > 1 else kwargs.get("dtype", "")
            self.rec.access(
                "create", file.path, full, elements=0, extent=extent,
                dtype=dtype if isinstance(dtype, str) else "",
                conditional=self.conditional,
                known_count=not self.conditional)
            return _ObjectVal(file=file, name=full, role="variable",
                              extent=extent, record_elems=record_elems)
        if attr == "variable":
            name = args[0] if args else UNKNOWN
            full = normalize_dataset(name) if isinstance(name, str) else UNKNOWN
            if isinstance(full, str) and isinstance(file.path, str):
                self.rec.access("open", file.path, full,
                                conditional=self.conditional,
                                known_count=not self.conditional)
            return _ObjectVal(file=file, name=full, role="variable")
        if attr == "delete":
            return None
        self.rec.note(f"unrecognized file operation .{attr}()")
        return UNKNOWN

    def _dispatch_object_call(self, obj: _ObjectVal, attr, args, kwargs):
        if attr == "read":
            sel = args[0] if args else kwargs.get("selection")
            self._record_object_io(obj, "read", selection=sel)
            return UNKNOWN
        if attr == "write":
            sel = args[1] if len(args) > 1 else kwargs.get("selection")
            self._record_object_io(obj, "write", selection=sel)
            return None
        if attr == "write_record":
            file_path = (obj.file.path if isinstance(obj.file, _FileVal)
                         else UNKNOWN)
            self.rec.access("write", file_path, obj.name,
                            elements=obj.record_elems,
                            conditional=self.conditional,
                            known_count=not self.conditional)
            return None
        if attr == "read_record":
            file_path = (obj.file.path if isinstance(obj.file, _FileVal)
                         else UNKNOWN)
            self.rec.access("read", file_path, obj.name,
                            elements=obj.record_elems,
                            conditional=self.conditional,
                            known_count=not self.conditional)
            return UNKNOWN
        if attr == "resize":
            self._record_object_io(obj, "open")
            return None
        if attr in ("close", "set_att", "get_att", "keys"):
            return None
        self.rec.note(f"unrecognized dataset operation .{attr}()")
        return UNKNOWN


@dataclass
class _DataArg:
    """Placeholder for a skipped data-payload argument."""

    node: Any


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def infer_contract(task: Task, max_ops: int = 500_000) -> TaskContract:
    """Infer a task's access contract from its function source.

    Best-effort: whatever cannot be resolved statically degrades to an
    ``exact=False`` contract with explanatory ``notes`` rather than an
    error, and accesses on unevaluable branches are ``conditional``.
    """
    recorder = _Recorder()
    interp = _Interp(recorder, max_ops=max_ops)
    fn = task.fn
    interp._task_module = getattr(fn, "__module__", "") or ""
    if not inspect.isfunction(fn):
        recorder.note("task body is not a plain Python function")
        return recorder.contract(task.name)
    try:
        interp.run_function(fn, [_RuntimeVal()])
    except _Budget:
        recorder.note("extraction step budget exhausted; contract is "
                      "truncated")
    except RecursionError:  # pragma: no cover - defensive
        recorder.note("extraction recursion limit hit")
    return recorder.contract(task.name)


@dataclass
class WorkflowContracts:
    """Declared and inferred contracts for every task of a workflow."""

    workflow: Workflow
    declared: Dict[str, TaskContract] = field(default_factory=dict)
    inferred: Dict[str, TaskContract] = field(default_factory=dict)

    def effective(self) -> Dict[str, TaskContract]:
        """Per task: the declared contract when present, else inferred."""
        out = dict(self.inferred)
        out.update(self.declared)
        return out

    def tasks(self) -> List[str]:
        return [t.name for t in self.workflow.all_tasks()]


def extract_workflow_contracts(workflow: Workflow,
                               max_ops: int = 500_000) -> WorkflowContracts:
    """Extract contracts for every task: AST inference for all, plus the
    declared contracts where tasks carry them."""
    out = WorkflowContracts(workflow=workflow)
    for t in workflow.all_tasks():
        out.inferred[t.name] = infer_contract(t, max_ops=max_ops)
        if t.contract is not None:
            declared = t.contract
            if not declared.task:
                declared = replace(declared, task=t.name)
            out.declared[t.name] = declared
    return out
