"""Optimisers and learning-rate schedules.

The paper trains with stochastic gradient descent (learning rate 0.3,
Table III); Adam is provided as well because the LINE graph-embedding stage
and several baselines converge much faster with it at the reduced scale of the
synthetic datasets.

Every ``step()`` is *fused*: updates run through in-place ``out=`` ufuncs into
a small pooled :class:`Workspace`, so a steady-state training loop performs
zero per-parameter temporary allocations after the first step.  The fused
sequences replicate the historical per-temporary formulas operation for
operation (scalar multiplication commutes bitwise, ``x ** 2`` lowers to
``np.square``, and an in-place subtract writes the same value a fresh
subtract would), so results stay bit-identical to earlier releases —
``tests/test_train_dtype.py`` pins this.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Tuple

import numpy as np

from .module import Parameter


class Workspace:
    """Named scratch buffers reused across optimizer steps.

    Buffers are keyed by ``(name, dtype)`` and grow to the largest request,
    so once every parameter shape has been seen :meth:`request` stops
    allocating.  Views handed out for the same key alias the same memory.
    """

    def __init__(self) -> None:
        self._buffers: Dict[Tuple[str, np.dtype], np.ndarray] = {}
        #: Fresh buffer allocations over the workspace's lifetime.
        self.allocations = 0

    def request(self, key: str, shape: Tuple[int, ...], dtype) -> np.ndarray:
        """An uninitialised array of exactly ``shape``/``dtype``."""
        dtype = np.dtype(dtype)
        needed = int(math.prod(shape))
        buffer = self._buffers.get((key, dtype))
        if buffer is None or buffer.size < needed:
            buffer = self._buffers[(key, dtype)] = np.empty(needed, dtype=dtype)
            self.allocations += 1
        return buffer[:needed].reshape(shape)


class Optimizer:
    """Base optimiser: holds parameters and applies gradient updates."""

    def __init__(self, parameters: Iterable[Parameter], lr: float) -> None:
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.lr = lr
        # Scratch pool shared by the fused step/clip kernels.  One buffer per
        # (key, dtype) grows to the largest parameter and is reused for every
        # parameter on every step.
        self._scratch = Workspace()

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        raise NotImplementedError

    def _decayed_grad(self, param: Parameter, weight_decay: float) -> np.ndarray:
        """``grad + weight_decay * param.data`` without touching ``param.grad``.

        Bit-equal to the historical ``grad + weight_decay * param.data``
        temporary (addition commutes), landed in a pooled buffer.
        """
        buf = self._scratch.request("opt.grad", param.data.shape, param.data.dtype)
        np.multiply(param.data, weight_decay, out=buf)
        buf += param.grad
        return buf

    def clip_grad_norm(self, max_norm: float) -> float:
        """Clip the global gradient norm; returns the pre-clip norm."""
        total = 0.0
        for param in self.parameters:
            if param.grad is not None:
                # Same bits as the historical `(grad ** 2).sum()` — ndarray
                # `** 2` lowers to np.square — without the temporary.
                sq = self._scratch.request("opt.sq", param.grad.shape, param.grad.dtype)
                np.square(param.grad, out=sq)
                total += float(sq.sum())
        norm = float(np.sqrt(total))
        if norm > max_norm and norm > 0:
            scale = max_norm / norm
            for param in self.parameters:
                if param.grad is not None:
                    param.grad *= scale
        return norm


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 0.3,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        for param, velocity in zip(self.parameters, self._velocity):
            if param.grad is None or not param.requires_grad:
                continue
            if self.weight_decay:
                grad = self._decayed_grad(param, self.weight_decay)
            else:
                grad = param.grad
            if self.momentum:
                velocity *= self.momentum
                velocity += grad
                update = velocity
            else:
                update = grad
            # Historical `param.data - self.lr * update`, fused: the scalar
            # product commutes and the subtract lands in place.
            buf = self._scratch.request("opt.upd", param.data.shape, param.data.dtype)
            np.multiply(update, self.lr, out=buf)
            np.subtract(param.data, buf, out=param.data)


class Adam(Optimizer):
    """Adam optimiser (Kingma & Ba, 2015)."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        bias_correction1 = 1.0 - self.beta1 ** self._t
        bias_correction2 = 1.0 - self.beta2 ** self._t
        for param, m, v in zip(self.parameters, self._m, self._v):
            if param.grad is None or not param.requires_grad:
                continue
            if self.weight_decay:
                grad = self._decayed_grad(param, self.weight_decay)
            else:
                grad = param.grad
            upd = self._scratch.request("opt.upd", param.data.shape, param.data.dtype)
            # m <- beta1*m + (1-beta1)*grad, exactly as the historical
            # `m += (1-beta1) * grad` temporary computed it.
            m *= self.beta1
            np.multiply(grad, 1.0 - self.beta1, out=upd)
            m += upd
            # v <- beta2*v + ((1-beta2)*grad)*grad (historical left-to-right
            # association preserved).
            v *= self.beta2
            np.multiply(grad, 1.0 - self.beta2, out=upd)
            upd *= grad
            v += upd
            # param -= (lr * m_hat) / (sqrt(v_hat) + eps)
            denom = self._scratch.request("opt.denom", param.data.shape, param.data.dtype)
            np.divide(v, bias_correction2, out=denom)
            np.sqrt(denom, out=denom)
            denom += self.eps
            np.divide(m, bias_correction1, out=upd)
            upd *= self.lr
            upd /= denom
            np.subtract(param.data, upd, out=param.data)


class Adagrad(Optimizer):
    """Adagrad optimiser — used by the original LINE implementation."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 0.025,
        eps: float = 1e-10,
    ) -> None:
        super().__init__(parameters, lr)
        self.eps = eps
        self._accum = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        for param, accum in zip(self.parameters, self._accum):
            if param.grad is None or not param.requires_grad:
                continue
            # accum += grad ** 2 (ndarray ** 2 lowers to np.square == grad*grad)
            upd = self._scratch.request("opt.upd", param.data.shape, param.data.dtype)
            np.multiply(param.grad, param.grad, out=upd)
            accum += upd
            # param -= (lr * grad) / (sqrt(accum) + eps)
            denom = self._scratch.request("opt.denom", param.data.shape, param.data.dtype)
            np.sqrt(accum, out=denom)
            denom += self.eps
            np.multiply(param.grad, self.lr, out=upd)
            upd /= denom
            np.subtract(param.data, upd, out=param.data)


class LRScheduler:
    """Base class for learning-rate schedules attached to an optimiser."""

    def __init__(self, optimizer: Optimizer) -> None:
        self.optimizer = optimizer
        self.base_lr = optimizer.lr
        self.epoch = 0

    def step(self) -> float:
        self.epoch += 1
        new_lr = self.get_lr(self.epoch)
        self.optimizer.lr = new_lr
        return new_lr

    def get_lr(self, epoch: int) -> float:
        raise NotImplementedError


class StepLR(LRScheduler):
    """Decay the learning rate by ``gamma`` every ``step_size`` epochs."""

    def __init__(self, optimizer: Optimizer, step_size: int, gamma: float = 0.5) -> None:
        super().__init__(optimizer)
        if step_size <= 0:
            raise ValueError("step_size must be positive")
        self.step_size = step_size
        self.gamma = gamma

    def get_lr(self, epoch: int) -> float:
        return self.base_lr * (self.gamma ** (epoch // self.step_size))


class LinearDecayLR(LRScheduler):
    """Linear decay from the base rate to ``final_fraction`` of it.

    The original LINE implementation uses this schedule over the total number
    of edge samples; we reuse it for the graph-embedding stage.
    """

    def __init__(
        self,
        optimizer: Optimizer,
        total_steps: int,
        final_fraction: float = 0.0001,
    ) -> None:
        super().__init__(optimizer)
        if total_steps <= 0:
            raise ValueError("total_steps must be positive")
        self.total_steps = total_steps
        self.final_fraction = final_fraction

    def get_lr(self, epoch: int) -> float:
        progress = min(1.0, epoch / self.total_steps)
        fraction = max(self.final_fraction, 1.0 - progress)
        return self.base_lr * fraction
