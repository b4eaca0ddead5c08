"""Operator declarations: the one place that knows what an operator's call looks like.

Every operator is registered once (``_reg``) with

* its *kind* (used by the static cost model of
  :mod:`repro.graph.cost_model` — e.g. heavy ``CONV``/``GEMM`` ops versus
  unit-cost ``ELEMENTWISE`` ops versus near-free ``SHAPE`` metadata ops),
* its input arity bounds and the number of outputs it produces,
* the :mod:`repro.runtime.functional` function that computes it and how a
  node maps onto that function's call: the leading ONNX inputs are the
  tensor operands (absent optional ones become ``None``), every other
  argument is a :class:`Param` — ``python name <- ONNX attribute, default,
  converter``, optionally "or ONNX input *i*" for the values newer opsets
  moved from attributes to tensors,
* the capabilities the planned engine needs: whether the output may alias
  memory that outlives the step, and how far ``out=`` / ``workspace=``
  destination passing is supported.

Two functions read a declaration.  :func:`bind` resolves a node's
attributes once into a closure over that one kernel — the interpreter and
constant folding run it.  :func:`render` prints the *same* call, with the
same normalised values as literals, for generated sequential and
per-cluster code (the paper's ``GeneratePytorchCodeForOperandType``) —
which is also the code the execution plan and the warm workers run, with
``out=out[i]`` naming a destination the caller may plan.  An attribute
default therefore exists exactly once; shape inference reads the
normalised values through :func:`attr_value`.

The registry intentionally mirrors (a subset of) the ONNX operator set so
that graphs written against it read like ONNX graphs.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import inspect
import math
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np


class OpKind(enum.Enum):
    """Coarse operator categories used by the cost model and the passes."""

    CONV = "conv"                 # convolutions — the heavy hitters
    GEMM = "gemm"                 # matmul / gemm / linear layers
    POOL = "pool"                 # pooling ops
    NORMALIZATION = "normalization"
    ACTIVATION = "activation"     # elementwise nonlinearities
    ELEMENTWISE = "elementwise"   # binary/unary arithmetic
    REDUCTION = "reduction"
    CONCAT = "concat"             # concat / split / stack
    MOVEMENT = "movement"         # reshape / transpose / slice / gather
    SHAPE = "shape"               # pure metadata ops (Shape, Constant, Cast…)
    CONTROL = "control"           # identity / dropout(eval) / no-ops
    EMBEDDING = "embedding"       # gather-based table lookups
    SOFTMAX = "softmax"
    RESIZE = "resize"


#: ``Param.default`` of a parameter the node must supply.
REQUIRED = object()
#: ``Param.default`` that resolves to the number of outputs the node names.
NUM_OUTPUTS = object()

#: Destination capabilities (``OpSchema.out``), strongest first.
#: Exact ``out=``: bitwise-identical with and without a destination, even
#: when the destination is one of its operands — so the op may compute in
#: place on an input that dies at it, or into a slab view.
INPLACE = "inplace"
#: Heavy kernel (conv / GEMM / pooling): computes into a slab view or
#: caller-bound destination via ``out=``.
ARENA = "arena"
#: Only the final store takes ``out=`` (the internals allocate regardless):
#: the result lands in a slab view or a caller-bound buffer, but never in
#: place on an operand.
OUTPUT = "output"


@dataclasses.dataclass(frozen=True)
class Param:
    """One non-tensor argument of an operator's call.

    The value comes from ONNX attribute ``attr`` (through ``convert``) when
    the node carries it, else from ONNX input ``input`` when that is
    declared and present (passed as the tensor; the kernel normalises it),
    else it is ``default``.
    """

    name: str                           # parameter name in the python function
    default: Any = None
    convert: Optional[Callable] = None  # normaliser of the attribute payload
    attr: Optional[str] = ""            # ONNX attribute carrying it ("": same as name)
    input: Optional[int] = None         # ONNX input that may carry it instead
    place: str = "kw"                   # "kw", "pos" (after the operands) or "lead" (before)

    def __post_init__(self) -> None:
        if self.attr == "":
            object.__setattr__(self, "attr", self.name)

    def normalise(self, payload: Any) -> Any:
        """The parameter value for an attribute payload."""
        return self.convert(payload) if self.convert else payload



@dataclasses.dataclass(frozen=True)
class OpSchema:
    """Static description of one operator type."""

    op_type: str
    kind: OpKind
    min_inputs: int = 1
    max_inputs: Optional[int] = 1
    num_outputs: int = 1
    #: name of the :mod:`repro.runtime.functional` function that computes it
    fn: Optional[str] = None
    params: Tuple[Param, ...] = ()
    #: how many leading ONNX inputs are tensor operands (default: all of
    #: them up to the first one a parameter may read)
    operands: Optional[int] = None
    #: every input is an operand, passed as one list (Concat) or
    #: unpacked (Einsum)
    variadic: Optional[str] = None
    #: the output may share memory with the first input or with state that
    #: outlives the run (a cached constant): its storage joins the input's
    #: liveness group and no op computes in place on it
    aliases: bool = False
    #: destination capability: INPLACE, ARENA, OUTPUT or None
    out: Optional[str] = None
    #: the function takes a ``workspace=`` scratch provider
    workspace: bool = False
    #: attributes the operator understands but its call does not need
    ignored: Tuple[str, ...] = ()
    #: for the few ops with no ``F.`` function: ``run(*operands, **params)``
    #: computes the outputs and ``emit(input_exprs, output_vars, **literals)``
    #: returns the statements generated code uses instead
    run: Optional[Callable] = None
    emit: Optional[Callable] = None
    doc: str = ""

    def __post_init__(self) -> None:
        if self.operands is None and not self.variadic:
            reads = [p.input for p in self.params if p.input is not None]
            object.__setattr__(self, "operands", min(reads, default=self.max_inputs))

    @property
    def attributes(self) -> Tuple[str, ...]:
        """Names of the ONNX attributes the operator understands."""
        return tuple(p.attr for p in self.params if p.attr) + self.ignored

    def accepts_arity(self, n: int) -> bool:
        """True when ``n`` inputs is a legal arity for this operator."""
        if n < self.min_inputs:
            return False
        if self.max_inputs is not None and n > self.max_inputs:
            return False
        return True


_REGISTRY: Dict[str, OpSchema] = {}


def register_op(schema: OpSchema) -> OpSchema:
    """Register (or overwrite) an operator schema."""
    _REGISTRY[schema.op_type] = schema
    return schema


def get_schema(op_type: str) -> OpSchema:
    """Return the schema for ``op_type``.

    Raises
    ------
    KeyError
        If the operator was never registered.
    """
    try:
        return _REGISTRY[op_type]
    except KeyError as exc:
        raise KeyError(
            f"operator {op_type!r} is not registered in the opset; "
            f"known ops: {sorted(_REGISTRY)[:10]}..."
        ) from exc


def has_schema(op_type: str) -> bool:
    """True when ``op_type`` is a registered operator."""
    return op_type in _REGISTRY


def registered_ops() -> List[str]:
    """Sorted list of all registered operator type names."""
    return sorted(_REGISTRY)


def require_supported(nodes: Iterable, error: type = KeyError) -> None:
    """Raise ``error`` naming every op type among ``nodes`` that is not registered.

    Registered means runnable and lowerable, so this is the one
    unsupported-operator check of the interpreter, the plan and codegen.
    """
    nodes = list(nodes)
    missing = sorted({n.op_type for n in nodes if n.op_type not in _REGISTRY})
    if missing:
        where = f" (node {nodes[0].name})" if len(nodes) == 1 else ""
        raise error(f"no handlers for ops: {missing}{where}")


# ---------------------------------------------------------------------------
# Resolving a node against its declaration
# ---------------------------------------------------------------------------
def _schema_of(node, error: type) -> OpSchema:
    schema = _REGISTRY.get(node.op_type)
    if schema is None:
        require_supported([node], error)
    return schema


class _Input(int):
    """Placeholder in a resolved call: present input number ``self`` of the node."""

    __slots__ = ()


def _resolve(schema: OpSchema, node, error: type):
    """Normalise ``node`` into ``(lead, operands, trail, keywords, direct)``.

    The first four are the arguments of its call: constants known now, or
    :class:`_Input` placeholders for values that arrive at run time as one
    of the node's present inputs.  ``operands`` holds the tensor operands;
    absent trailing ones are constant ``None`` entries at the head of
    ``trail``.  ``direct`` is True when the operands are exactly the
    present inputs, in order, and every other argument is a constant.
    """
    slots: Dict[int, _Input] = {}
    for index, name in enumerate(node.inputs):
        if name:
            slots[index] = _Input(len(slots))
    if schema.variadic:
        operands: List[Any] = list(slots.values())
    else:
        operands = [slots.get(index) for index in range(schema.operands)]
    trail: List[Any] = []
    while operands and operands[-1] is None:
        trail.append(operands.pop())
    direct = None not in operands and len(operands) == len(slots)
    lead: List[Any] = []
    keywords: Dict[str, Any] = {}
    attributes = node.attributes
    for param in schema.params:
        attr = attributes.get(param.attr) if param.attr else None
        if attr is not None:
            value = param.normalise(attr.value)
        elif param.input in slots:
            value = slots[param.input]
            direct = False
        elif param.default is REQUIRED:
            raise error(f"{node.op_type} node {node.name} has no {param.attr} attribute")
        elif param.default is NUM_OUTPUTS:
            value = len([o for o in node.outputs if o])
        else:
            value = param.default
        if param.place == "kw":
            keywords[param.name] = value
        else:
            (trail if param.place == "pos" else lead).append(value)
    return lead, operands, trail, keywords, direct


def attr_value(node, name: str) -> Any:
    """Normalised value of ONNX attribute ``name`` on ``node``.

    The declared converter is applied; when the node does not carry the
    attribute the result is the declared default (``None`` for a required
    parameter, whose value then arrives as an input tensor).
    """
    for param in get_schema(node.op_type).params:
        if param.attr == name:
            break
    else:
        raise KeyError(f"operator {node.op_type!r} declares no attribute {name!r}")
    attr = node.attributes.get(name)
    if attr is not None:
        return param.normalise(attr.value)
    return None if param.default is REQUIRED else param.default


# ---------------------------------------------------------------------------
# bind: a node -> a closure over its one kernel
# ---------------------------------------------------------------------------
class BoundOp(NamedTuple):
    """A node resolved against its declaration, ready to run."""

    #: ``call(args)`` — ``args`` are the values of the node's present
    #: inputs — returns what the kernel returns; when ``out`` is set it is
    #: ``call(args, out=None)`` and computes into the destination
    call: Callable
    #: destination capability of *this node* (``OpSchema.out``, or None)
    out: Optional[str]
    #: the kernel returns a sequence, one entry per declared output
    multi: bool


def bind(node, error: type = KeyError, workspace=None) -> BoundOp:
    """Resolve ``node``'s attributes once into a closure over its kernel.

    ``workspace`` is handed to kernels that take a scratch provider.
    Unsupported operators and missing required attributes raise ``error``.
    """
    schema = _schema_of(node, error)
    lead, operands, trail, keywords, direct = _resolve(schema, node, error)
    if schema.run is not None:
        fn = schema.run
    else:
        import repro.runtime.functional as F  # the runtime imports the IR, not vice versa

        fn = getattr(F, schema.fn)
    if schema.workspace and workspace is not None:
        keywords["workspace"] = workspace
    multi = schema.num_outputs != 1

    if not direct:
        # Some argument arrives as an input tensor, or an input is unused
        # (Reshape carrying both the attribute and the tensor): gather the
        # call's arguments by slot.
        positional = lead + operands + trail
        picks = [(i, v) for i, v in enumerate(positional) if isinstance(v, _Input)]
        kw_picks = [(k, v) for k, v in keywords.items() if isinstance(v, _Input)]

        def call(args):
            pos = list(positional)
            for index, slot in picks:
                pos[index] = args[slot]
            if not kw_picks:
                return fn(*pos, **keywords)
            kwargs = dict(keywords)
            for key, slot in kw_picks:
                kwargs[key] = args[slot]
            return fn(*pos, **kwargs)

        return BoundOp(call, None, multi)

    lead, trail = tuple(lead), tuple(trail)
    if schema.variadic == "list":
        if schema.out:
            return BoundOp(lambda args, out=None: fn(args, *trail, out=out, **keywords),
                           schema.out, multi)
        return BoundOp(lambda args: fn(args, *trail, **keywords), None, multi)
    if schema.out:
        return BoundOp(lambda args, out=None: fn(*lead, *args, *trail, out=out, **keywords),
                       schema.out, multi)
    return BoundOp(lambda args: fn(*lead, *args, *trail, **keywords), None, multi)


# ---------------------------------------------------------------------------
# render: a node -> the same call as readable Python text
# ---------------------------------------------------------------------------
def _python(value: Any) -> str:
    """``repr(value)`` for plain Python data, except that a non-finite float
    is spelled ``float('inf')`` / ``float('-inf')`` / ``float('nan')`` —
    ``repr`` prints a bare ``inf``, which no generated module defines."""
    if isinstance(value, float) and not math.isfinite(value):
        return f"float('{value!r}')"
    if type(value) is list:
        return f"[{', '.join(map(_python, value))}]"
    if type(value) is tuple:
        items = ", ".join(map(_python, value))
        return f"({items},)" if len(value) == 1 else f"({items})"
    return repr(value)


@functools.lru_cache(maxsize=4096)
def _int_list(items: Tuple[int, ...]) -> str:
    """The literal of a list of ``int`` (pads, strides, kernel shapes):
    printed once, however many nodes carry it."""
    return _python(list(items))


def _literal(value: Any, error: type) -> str:
    """Render a normalised parameter value as a Python literal."""
    if isinstance(value, (list, tuple)):
        items = tuple(value)
        # Only exact ints share an entry: True == 1 and -0.0 == 0.0 hash
        # alike but print differently.
        if all(type(item) is int for item in items):
            return _int_list(items)
        return _python(list(items))
    if isinstance(value, np.generic):
        return f"np.{type(value).__name__}({_python(value.item())})"
    if value is None or isinstance(value, (int, float, str)):
        return _python(value)
    if isinstance(value, np.ndarray):
        text = f"np.array({_python(value.ravel().tolist())}, dtype=np.{value.dtype.name})"
        return text if value.ndim == 1 else f"{text}.reshape({list(value.shape)!r})"
    raise error(f"cannot render attribute value {value!r} as a literal")


@functools.lru_cache(maxsize=None)
def _default_literals(fn: str) -> Dict[str, str]:
    """The keyword defaults of ``F.<fn>``'s own signature, as literals.

    Read once per function: they depend on the code only.
    """
    import repro.runtime.functional as F

    literals = {}
    for param in inspect.signature(getattr(F, fn)).parameters.values():
        try:
            literals[param.name] = _literal(param.default, TypeError)
        except TypeError:
            pass  # no default, or none a literal can spell
    return literals


def destination(node) -> Optional[str]:
    """The destination capability of ``node``'s call (``INPLACE``, ``ARENA``,
    ``OUTPUT``), or None when the call takes no ``out=``.

    A call takes ``out=`` when its declaration supports one and every
    argument but the tensor operands is a constant — the calls
    :func:`render` prints with ``out=out[i]``.
    """
    schema = _schema_of(node, KeyError)
    return _capability(schema, _resolve(schema, node, KeyError)[4])


def _capability(schema: OpSchema, direct: bool) -> Optional[str]:
    """The one rule :func:`destination` and :func:`render` share: a call
    takes ``out=`` when its declaration supports one, it is not printed by
    an ``emit`` hook, and ``_resolve`` found it ``direct``."""
    return schema.out if schema.out and schema.emit is None and direct else None


def render(node, input_exprs: Sequence[str], output_vars: Sequence[str],
           error: type = KeyError,
           slot: Optional[int] = None) -> Tuple[List[str], Optional[str]]:
    """Print ``node`` as Python statements assigning ``output_vars``; returns
    the statements and the call's :func:`destination` capability.

    ``input_exprs`` are the expressions of the node's present inputs and
    ``output_vars`` the variables of its named outputs.  The statement is
    the call :func:`bind` makes, with the resolved parameters as literals;
    a keyword whose literal is the called function's own default is left
    out.  With ``slot``, a call that takes a destination (see
    :func:`destination`) also passes ``out=out[slot]``, and a kernel that
    takes a scratch provider ``workspace=ws``: the caller's destination
    table and workspace, ``None`` when it has none.
    """
    schema = _schema_of(node, error)
    lead, operands, trail, keywords, direct = _resolve(schema, node, error)

    def text(value: Any) -> str:
        return input_exprs[value] if type(value) is _Input else _literal(value, error)

    args = [*map(text, operands)]
    named = {key: text(value) for key, value in keywords.items()}
    if schema.emit is not None:
        return schema.emit(args, list(output_vars), **named), None
    if schema.variadic == "list":
        args = [f"[{', '.join(args)}]"]
    defaults = _default_literals(schema.fn)
    args = [*map(text, lead), *args, *map(text, trail), *(
        f"{key}={value}" for key, value in named.items()
        if type(keywords[key]) is _Input or defaults.get(key) != value)]
    capability = _capability(schema, direct)
    if slot is not None:
        if capability:
            args.append(f"out=out[{slot}]")
        if schema.workspace:
            args.append("workspace=ws")
    if schema.num_outputs == 1:
        targets = output_vars[0]
    else:
        # One target per declared output; unnamed ones are discarded.
        names = iter(output_vars)
        slots = [next(names) if name else "_" for name in node.outputs]
        slots += ["_"] * (schema.num_outputs - len(slots))
        targets = ", ".join(slots) + ("," if len(slots) == 1 else "")
    return [f"{targets} = F.{schema.fn}({', '.join(args)})"], capability


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------
def _reg(op_type: str, kind: OpKind, fn: Optional[str] = None,
         params: Sequence[Param] = (), min_inputs: int = 1,
         max_inputs: Optional[int] = 1, num_outputs: int = 1, **fields: Any) -> None:
    register_op(OpSchema(op_type=op_type, kind=kind, min_inputs=min_inputs,
                         max_inputs=max_inputs, num_outputs=num_outputs, fn=fn,
                         params=tuple(params), **fields))


def _scalar(value: Any) -> Any:
    """A fill value as a scalar: a 1-element tensor keeps its dtype."""
    return value.reshape(-1)[0] if isinstance(value, np.ndarray) else value


_STRIDES = Param("strides", (1, 1))
_PADS = Param("pads", (0, 0, 0, 0))
_GROUP = Param("group", 1, int)
_CEIL_MODE = Param("ceil_mode", False, bool)
_EPSILON = Param("epsilon", 1e-5, float)
_KEEPDIMS = Param("keepdims", True, bool)


def _axis(default: int) -> Param:
    return Param("axis", default, int)


# -- convolution / pooling ----------------------------------------------------
_reg("Conv", OpKind.CONV, "conv2d",
     [_STRIDES, _PADS, Param("dilations", (1, 1)), _GROUP],
     min_inputs=2, max_inputs=3, out=ARENA, workspace=True, ignored=("kernel_shape",),
     doc="2D convolution: X, W[, B] -> Y (NCHW layout).")
_reg("ConvTranspose", OpKind.CONV, "conv_transpose2d",
     [_STRIDES, _PADS, Param("output_padding", (0, 0)), _GROUP],
     min_inputs=2, max_inputs=3, out=ARENA, workspace=True, ignored=("kernel_shape",),
     doc="Transposed (fractionally strided) convolution.")
_POOL = [Param("kernel", (1, 1), attr="kernel_shape"), _STRIDES, _PADS, _CEIL_MODE]
_reg("MaxPool", OpKind.POOL, "max_pool2d", _POOL, out=ARENA, workspace=True,
     doc="2D max pooling.")
_reg("AveragePool", OpKind.POOL, "avg_pool2d",
     _POOL + [Param("count_include_pad", False, bool)], out=ARENA, workspace=True,
     doc="2D average pooling.")
_reg("GlobalAveragePool", OpKind.POOL, "global_avg_pool2d",
     doc="Spatial global average pooling.")
_reg("GlobalMaxPool", OpKind.POOL, "global_max_pool2d",
     doc="Spatial global max pooling.")

# -- linear algebra -----------------------------------------------------------
# ``sample_rows``: a 2-D product's row count at the compiled signature, which
# ``optimize_model`` records so a fused batch runs one such call per sample.
_SAMPLE_ROWS = Param("sample_rows", None, int)
_reg("MatMul", OpKind.GEMM, "matmul", [_SAMPLE_ROWS], min_inputs=2, max_inputs=2, out=ARENA,
     doc="Batched matrix multiply.")
_reg("Gemm", OpKind.GEMM, "gemm",
     [Param("alpha", 1.0, float), Param("beta", 1.0, float),
      Param("trans_a", False, bool, attr="transA"), Param("trans_b", False, bool, attr="transB"),
      _SAMPLE_ROWS],
     min_inputs=2, max_inputs=3, out=ARENA,
     doc="General matrix multiply with optional bias: alpha*A@B + beta*C.")
_reg("Einsum", OpKind.GEMM, "einsum", [Param("equation", REQUIRED, place="lead")],
     max_inputs=None, variadic="star")

# -- normalization ------------------------------------------------------------
_reg("BatchNormalization", OpKind.NORMALIZATION, "batch_norm", [_EPSILON],
     min_inputs=5, max_inputs=5, out=INPLACE, ignored=("momentum",),
     doc="Inference-mode batch normalization: X, scale, B, mean, var -> Y.")
_reg("LayerNormalization", OpKind.NORMALIZATION, "layer_norm", [_axis(-1), _EPSILON],
     min_inputs=2, max_inputs=3, doc="Layer normalization: X, scale[, bias] -> Y.")
_reg("InstanceNormalization", OpKind.NORMALIZATION, "instance_norm", [_EPSILON],
     min_inputs=3, max_inputs=3)

# -- activations --------------------------------------------------------------
for _op, _fn in (("Relu", "relu"), ("Sigmoid", "sigmoid"), ("Tanh", "tanh"),
                 ("Softplus", "softplus")):
    _reg(_op, OpKind.ACTIVATION, _fn, out=INPLACE)
_reg("Erf", OpKind.ACTIVATION, "erf", out=INPLACE, workspace=True)
for _op, _fn in (("Gelu", "gelu"), ("HardSwish", "hard_swish"), ("Mish", "mish")):
    _reg(_op, OpKind.ACTIVATION, _fn)
_reg("LeakyRelu", OpKind.ACTIVATION, "leaky_relu", [Param("alpha", 0.01, float)])
_reg("Elu", OpKind.ACTIVATION, "elu", [Param("alpha", 1.0, float)])
_reg("Selu", OpKind.ACTIVATION, "selu",
     [Param("alpha", 1.6732632, float), Param("gamma", 1.0507010, float)])
_reg("HardSigmoid", OpKind.ACTIVATION, "hard_sigmoid",
     [Param("alpha", 0.2, float), Param("beta", 0.5, float)])
_reg("PRelu", OpKind.ACTIVATION, "prelu", min_inputs=2, max_inputs=2)
_reg("Clip", OpKind.ACTIVATION, "clip",
     [Param("min_value", None, float, attr="min", input=1, place="pos"),
      Param("max_value", None, float, attr="max", input=2, place="pos")],
     max_inputs=3, out=INPLACE)
_reg("Softmax", OpKind.SOFTMAX, "softmax", [_axis(-1)], out=OUTPUT)
_reg("LogSoftmax", OpKind.SOFTMAX, "log_softmax", [_axis(-1)], out=OUTPUT)

# -- elementwise arithmetic ---------------------------------------------------
for _op, _fn in (("Add", "add"), ("Sub", "sub"), ("Mul", "mul"), ("Div", "div"),
                 ("Pow", "pow_"), ("Mod", "mod"), ("Min", "minimum"), ("Max", "maximum")):
    _reg(_op, OpKind.ELEMENTWISE, _fn, min_inputs=2, max_inputs=2, out=INPLACE)
for _op, _fn in (("Sqrt", "sqrt"), ("Exp", "exp"), ("Log", "log"), ("Neg", "neg"),
                 ("Abs", "abs_"), ("Reciprocal", "reciprocal"), ("Floor", "floor"),
                 ("Ceil", "ceil"), ("Round", "round_"), ("Sign", "sign"),
                 ("Cos", "cos"), ("Sin", "sin")):
    _reg(_op, OpKind.ELEMENTWISE, _fn, out=INPLACE)
for _op, _fn in (("Equal", "equal"), ("Greater", "greater"), ("Less", "less"),
                 ("GreaterOrEqual", "greater_or_equal"), ("LessOrEqual", "less_or_equal"),
                 ("And", "logical_and"), ("Or", "logical_or"), ("Xor", "logical_xor")):
    _reg(_op, OpKind.ELEMENTWISE, _fn, min_inputs=2, max_inputs=2)
_reg("Not", OpKind.ELEMENTWISE, "logical_not")
_reg("Where", OpKind.ELEMENTWISE, "where", min_inputs=3, max_inputs=3)

# -- reductions ---------------------------------------------------------------
for _op, _fn in (("ReduceMean", "reduce_mean"), ("ReduceSum", "reduce_sum"),
                 ("ReduceMax", "reduce_max"), ("ReduceMin", "reduce_min"),
                 ("ReduceProd", "reduce_prod"), ("ReduceL2", "reduce_l2")):
    _reg(_op, OpKind.REDUCTION, _fn, [Param("axes", input=1), _KEEPDIMS], max_inputs=2)
_reg("ArgMax", OpKind.REDUCTION, "argmax", [_axis(0), _KEEPDIMS])
_reg("ArgMin", OpKind.REDUCTION, "argmin", [_axis(0), _KEEPDIMS])
_reg("CumSum", OpKind.REDUCTION, "cumsum", min_inputs=2, max_inputs=2)
_reg("TopK", OpKind.REDUCTION, "topk",
     [_axis(-1), Param("largest", True, bool), Param("sorted_", True, bool, attr="sorted")],
     min_inputs=2, max_inputs=2, num_outputs=2)

# -- concatenation / splitting ------------------------------------------------
_reg("Concat", OpKind.CONCAT, "concat", [_axis(0)], max_inputs=None,
     variadic="list", out=OUTPUT)
_reg("Split", OpKind.CONCAT, "split",
     [Param("parts", NUM_OUTPUTS, attr=None), Param("sizes", attr="split", input=1), _axis(0)],
     max_inputs=2, num_outputs=-1, aliases=True)

# -- data movement / indexing -------------------------------------------------
_reg("Reshape", OpKind.MOVEMENT, "reshape", [Param("shape", REQUIRED, input=1, place="pos")],
     max_inputs=2, aliases=True)
_reg("Transpose", OpKind.MOVEMENT, "transpose", [Param("perm", place="pos")], aliases=True)
_reg("Flatten", OpKind.MOVEMENT, "flatten", [_axis(1)], aliases=True)
_reg("Squeeze", OpKind.MOVEMENT, "squeeze", [Param("axes", input=1, place="pos")],
     max_inputs=2, aliases=True)
_reg("Unsqueeze", OpKind.MOVEMENT, "unsqueeze",
     [Param("axes", REQUIRED, input=1, place="pos")], max_inputs=2, aliases=True)
_reg("Slice", OpKind.MOVEMENT, "slice_",
     [Param("starts", REQUIRED, input=1, place="pos"),
      Param("ends", REQUIRED, input=2, place="pos"),
      Param("axes", input=3, place="pos"), Param("steps", input=4, place="pos")],
     max_inputs=5, aliases=True)
_reg("Gather", OpKind.MOVEMENT, "gather", [_axis(0)], min_inputs=2, max_inputs=2)
_reg("GatherElements", OpKind.MOVEMENT, "gather_elements", [_axis(0)],
     min_inputs=2, max_inputs=2)
_reg("Expand", OpKind.MOVEMENT, "expand", min_inputs=2, max_inputs=2, aliases=True)
_reg("Tile", OpKind.MOVEMENT, "tile", min_inputs=2, max_inputs=2, aliases=True)
_reg("Pad", OpKind.MOVEMENT, "pad",
     [Param("pads", REQUIRED, input=1, place="pos"), Param("mode", "constant"),
      Param("value", 0.0, float, input=2)], max_inputs=3)
_reg("DepthToSpace", OpKind.MOVEMENT, "depth_to_space",
     [Param("blocksize", 2, int, place="pos"), Param("mode", "DCR")])
_reg("SpaceToDepth", OpKind.MOVEMENT, "space_to_depth", [Param("blocksize", 2, int, place="pos")])
# Resize reads scales from input 2 (input 1 is roi), the older Upsample from input 1.
_reg("Resize", OpKind.RESIZE, "resize_nearest",
     [Param("scales", REQUIRED, input=2, place="pos")], max_inputs=4, operands=1,
     aliases=True, ignored=("mode", "coordinate_transformation_mode"))
_reg("Upsample", OpKind.RESIZE, "resize_nearest",
     [Param("scales", REQUIRED, input=1, place="pos")], max_inputs=2,
     aliases=True, ignored=("mode",))

# -- metadata / constants / casting -------------------------------------------
_reg("Shape", OpKind.SHAPE, "shape_of",
     doc="Returns the shape of its input as an int64 tensor.")
_reg("Size", OpKind.SHAPE, "size_of")
_reg("Cast", OpKind.SHAPE, "cast", [Param("to", "float32")])
_reg("ConstantOfShape", OpKind.SHAPE, "constant_of_shape", [Param("value", 0.0, _scalar)])
_reg("OneHot", OpKind.SHAPE, "one_hot", [_axis(-1)], min_inputs=3, max_inputs=3)
# The bound closure returns the same cached array on every run, hence `aliases`.
_reg("Constant", OpKind.SHAPE, params=[Param("value", REQUIRED, np.asarray)],
     min_inputs=0, max_inputs=0, aliases=True,
     run=lambda value: value,
     emit=lambda ins, outs, value: [f"{outs[0]} = {value}"])
_reg("Range", OpKind.SHAPE, min_inputs=3, max_inputs=3,
     run=lambda start, limit, delta: np.arange(
         np.asarray(start).item(), np.asarray(limit).item(), np.asarray(delta).item()),
     emit=lambda ins, outs: [
         f"{outs[0]} = np.arange(np.asarray({ins[0]}).item(), "
         f"np.asarray({ins[1]}).item(), np.asarray({ins[2]}).item())"])
_reg("NonZero", OpKind.SHAPE,
     run=lambda x: np.asarray(np.nonzero(x), dtype=np.int64),
     emit=lambda ins, outs: [f"{outs[0]} = np.asarray(np.nonzero({ins[0]}), dtype=np.int64)"])

# -- control / no-ops ---------------------------------------------------------
_reg("Identity", OpKind.CONTROL, aliases=True, run=np.asarray,
     emit=lambda ins, outs: [f"{outs[0]} = np.asarray({ins[0]})"])


def _run_dropout(x, *_):
    x = np.asarray(x)
    return x, np.ones_like(x, dtype=bool)


def _emit_dropout(ins: List[str], outs: List[str]) -> List[str]:
    stmts = [f"{outs[0]} = np.asarray({ins[0]})  # inference-mode dropout is a no-op"]
    if len(outs) > 1:
        stmts.append(f"{outs[1]} = np.ones_like({outs[0]}, dtype=bool)")
    return stmts


_reg("Dropout", OpKind.CONTROL, max_inputs=3, num_outputs=2, aliases=True,
     ignored=("ratio",), run=_run_dropout, emit=_emit_dropout,
     doc="Inference-mode dropout is a pass-through (mask output unused).")

# -- embedding-style lookups (BERT) -------------------------------------------
_reg("EmbeddingLookup", OpKind.EMBEDDING, "gather", [Param("axis", 0, attr=None)],
     min_inputs=2, max_inputs=2,
     doc="Table lookup: weights[indices] (Gather specialization for NLP models).")
