"""Module system mirroring ``torch.nn``.

A :class:`Module` owns :class:`~repro.nn.tensor.Parameter` attributes and
child modules, exposes ``named_parameters``/``state_dict``/``apply`` and a
``training`` flag — everything the TyXe-style BNN classes need in order to
walk an arbitrary architecture and replace its parameters with sample sites.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from . import functional as F
from . import init
from .tensor import Parameter, Tensor

__all__ = [
    "Module",
    "Sequential",
    "ModuleList",
    "Linear",
    "Conv2d",
    "BatchNorm2d",
    "MaxPool2d",
    "AvgPool2d",
    "AdaptiveAvgPool2d",
    "Flatten",
    "ReLU",
    "Tanh",
    "Sigmoid",
    "Softplus",
    "Identity",
    "Dropout",
]


class Module:
    """Base class for all neural-network modules."""

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "_buffers", OrderedDict())
        object.__setattr__(self, "training", True)

    # ------------------------------------------------------------ attribute
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
            self.__dict__.pop(name, None)
        elif isinstance(value, Module):
            self._modules[name] = value
            self.__dict__.pop(name, None)
        else:
            if name in self._parameters and isinstance(value, Tensor):
                # allow replacing a parameter with a plain tensor (used when
                # substituting sampled weights); store it as an override.
                self._parameters[name] = value
                return
            object.__setattr__(self, name, value)

    def __getattr__(self, name: str):
        params = self.__dict__.get("_parameters")
        if params is not None and name in params:
            return params[name]
        modules = self.__dict__.get("_modules")
        if modules is not None and name in modules:
            return modules[name]
        buffers = self.__dict__.get("_buffers")
        if buffers is not None and name in buffers:
            return buffers[name]
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register a non-learnable persistent array (e.g. BatchNorm statistics)."""
        self._buffers[name] = value

    def register_parameter(self, name: str, param: Optional[Parameter]) -> None:
        if param is None:
            self._parameters[name] = None
        else:
            self._parameters[name] = param

    # ----------------------------------------------------------- navigation
    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        yield prefix, self
        for name, module in self._modules.items():
            child_prefix = f"{prefix}.{name}" if prefix else name
            yield from module.named_modules(child_prefix)

    def modules(self) -> Iterator["Module"]:
        for _, m in self.named_modules():
            yield m

    def named_children(self) -> Iterator[Tuple[str, "Module"]]:
        yield from self._modules.items()

    def children(self) -> Iterator["Module"]:
        yield from self._modules.values()

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            if param is not None:
                full = f"{prefix}.{name}" if prefix else name
                yield full, param
        for name, module in self._modules.items():
            child_prefix = f"{prefix}.{name}" if prefix else name
            yield from module.named_parameters(child_prefix)

    def parameters(self) -> Iterator[Parameter]:
        for _, p in self.named_parameters():
            yield p

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        for name, buf in self._buffers.items():
            full = f"{prefix}.{name}" if prefix else name
            yield full, buf
        for name, module in self._modules.items():
            child_prefix = f"{prefix}.{name}" if prefix else name
            yield from module.named_buffers(child_prefix)

    def get_submodule(self, target: str) -> "Module":
        module: Module = self
        if target == "":
            return module
        for part in target.split("."):
            module = module._modules[part]
        return module

    def get_parameter(self, target: str) -> Parameter:
        *path, name = target.split(".")
        module = self.get_submodule(".".join(path))
        return module._parameters[name]

    def set_parameter(self, target: str, value: Tensor) -> None:
        """Replace a (possibly nested) parameter entry with ``value``."""
        *path, name = target.split(".")
        module = self.get_submodule(".".join(path))
        module._parameters[name] = value

    def set_buffer(self, target: str, value: np.ndarray) -> None:
        """Replace a (possibly nested) buffer entry with ``value``.

        The restore half of :meth:`named_buffers`: model snapshots
        (``repro.serve``) persist running statistics such as batch-norm
        moments and write them back through this hook on load.
        """
        *path, name = target.split(".")
        module = self.get_submodule(".".join(path))
        module._buffers[name] = np.asarray(value)

    # -------------------------------------------------------------- training
    def train(self, mode: bool = True) -> "Module":
        object.__setattr__(self, "training", mode)
        for m in self._modules.values():
            m.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def apply(self, fn: Callable[["Module"], None]) -> "Module":
        for m in self._modules.values():
            m.apply(fn)
        fn(self)
        return self

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None

    # ------------------------------------------------------------ state dict
    def state_dict(self) -> Dict[str, np.ndarray]:
        state: Dict[str, np.ndarray] = OrderedDict()
        for name, p in self.named_parameters():
            state[name] = p.data.copy()
        for name, b in self.named_buffers():
            state[name] = np.array(b, copy=True)
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        for name, p in self.named_parameters():
            if name in state:
                p.data[...] = state[name]
        for name, b in self.named_buffers():
            if name in state:
                b[...] = state[name]

    # --------------------------------------------------------------- forward
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def __repr__(self) -> str:
        child_lines = [f"  ({name}): {module!r}" for name, module in self._modules.items()]
        body = "\n".join(child_lines)
        if body:
            return f"{type(self).__name__}(\n{body}\n)"
        return f"{type(self).__name__}()"


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        for i, module in enumerate(modules):
            setattr(self, str(i), module)

    def __iter__(self) -> Iterator[Module]:
        return iter(self._modules.values())

    def __len__(self) -> int:
        return len(self._modules)

    def __getitem__(self, idx: int) -> Module:
        return list(self._modules.values())[idx]

    def append(self, module: Module) -> "Sequential":
        setattr(self, str(len(self._modules)), module)
        return self

    def forward(self, x, *extra):
        for module in self._modules.values():
            x = module(x, *extra) if extra else module(x)
        return x


class ModuleList(Module):
    """Holds submodules in a list."""

    def __init__(self, modules: Optional[List[Module]] = None) -> None:
        super().__init__()
        for module in modules or []:
            self.append(module)

    def append(self, module: Module) -> "ModuleList":
        setattr(self, str(len(self._modules)), module)
        return self

    def __iter__(self) -> Iterator[Module]:
        return iter(self._modules.values())

    def __len__(self) -> int:
        return len(self._modules)

    def __getitem__(self, idx: int) -> Module:
        return list(self._modules.values())[idx]


class Linear(Module):
    """Affine map ``y = x W^T + b``.

    The forward pass broadcasts over arbitrary leading weight dimensions: if
    the ``weight`` parameter is (temporarily) replaced by a stack of ``S``
    sampled weight matrices of shape ``(S, out, in)`` — as the vectorized
    posterior-predictive path of ``repro.core`` does — a single call computes
    all ``S`` forward passes at once, returning ``(S, N, out)``.
    """

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(np.empty((out_features, in_features)))
        init.kaiming_uniform_(self.weight, rng=rng)
        if bias:
            bound = 1.0 / math.sqrt(in_features)
            self.bias = Parameter(np.empty(out_features))
            init.uniform_(self.bias, -bound, bound, rng=rng)
        else:
            self.register_parameter("bias", None)

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self._parameters.get("bias"))

    def __repr__(self) -> str:
        return f"Linear(in_features={self.in_features}, out_features={self.out_features})"


class Conv2d(Module):
    """2-D convolution with square kernels.

    Like :class:`Linear`, the forward pass broadcasts over leading weight
    sample dimensions (``(S, out_c, in_c, kh, kw)``), enabling vectorized
    multi-sample posterior prediction.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0, bias: bool = True,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.weight = Parameter(np.empty((out_channels, in_channels, kernel_size, kernel_size)))
        init.kaiming_uniform_(self.weight, rng=rng)
        if bias:
            fan_in = in_channels * kernel_size * kernel_size
            bound = 1.0 / math.sqrt(fan_in)
            self.bias = Parameter(np.empty(out_channels))
            init.uniform_(self.bias, -bound, bound, rng=rng)
        else:
            self.register_parameter("bias", None)

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.weight, self._parameters.get("bias"),
                        stride=self.stride, padding=self.padding)

    def __repr__(self) -> str:
        return (f"Conv2d({self.in_channels}, {self.out_channels}, "
                f"kernel_size={self.kernel_size}, stride={self.stride}, padding={self.padding})")


class BatchNorm2d(Module):
    """Batch normalization over the channel dimension of NCHW input."""

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1) -> None:
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.weight = Parameter(np.ones(num_features))
        self.bias = Parameter(np.zeros(num_features))
        self.register_buffer("running_mean", np.zeros(num_features))
        self.register_buffer("running_var", np.ones(num_features))

    def forward(self, x: Tensor) -> Tensor:
        return F.batch_norm(x, self._buffers["running_mean"], self._buffers["running_var"],
                            self._parameters["weight"], self._parameters["bias"],
                            training=self.training, momentum=self.momentum, eps=self.eps)

    def __repr__(self) -> str:
        return f"BatchNorm2d({self.num_features})"


class MaxPool2d(Module):
    def __init__(self, kernel_size: int, stride: Optional[int] = None) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride or kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return F.max_pool2d(x, self.kernel_size, self.stride)

    def __repr__(self) -> str:
        return f"MaxPool2d(kernel_size={self.kernel_size}, stride={self.stride})"


class AvgPool2d(Module):
    def __init__(self, kernel_size: int, stride: Optional[int] = None) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride or kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return F.avg_pool2d(x, self.kernel_size, self.stride)


class AdaptiveAvgPool2d(Module):
    def __init__(self, output_size: int = 1) -> None:
        super().__init__()
        self.output_size = output_size

    def forward(self, x: Tensor) -> Tensor:
        return F.adaptive_avg_pool2d(x, self.output_size)


class Flatten(Module):
    """Flatten trailing dimensions from ``start_dim`` onwards.

    Under the vectorized-sample execution mode (``F.vectorized_samples``),
    activations carry extra leading sample axes; a positive ``start_dim`` is
    shifted right by that many axes so the flattening still applies to the
    per-datapoint feature dimensions only.  That needs the axes on every
    activation, also ahead of the first layer whose weights carry them: the
    batched predict gives its inputs a size-1 sample axis for this.
    """

    def __init__(self, start_dim: int = 1) -> None:
        super().__init__()
        self.start_dim = start_dim

    def forward(self, x: Tensor) -> Tensor:
        start = self.start_dim
        if start > 0:
            start += F.sample_ndim()
        return x.flatten(start)


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.relu(x)

    def __repr__(self) -> str:
        return "ReLU()"


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.tanh(x)

    def __repr__(self) -> str:
        return "Tanh()"


class Sigmoid(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.sigmoid(x)


class Softplus(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.softplus(x)


class Identity(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x

    def __repr__(self) -> str:
        return "Identity()"


class Dropout(Module):
    def __init__(self, p: float = 0.5) -> None:
        super().__init__()
        self.p = p

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, training=self.training)
