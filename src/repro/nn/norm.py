"""Batch and group normalisation."""

from __future__ import annotations

import numpy as np

from .module import Module, Parameter, _grad_enabled

__all__ = ["BatchNorm2d", "BatchNorm1d", "GroupNorm"]


class _BatchNorm(Module):
    """Shared machinery of 1-D/2-D batch norm.

    Normalises over all axes except the channel axis, learns per-channel
    ``gamma``/``beta``, and maintains running statistics for eval mode.
    """

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1):
        super().__init__()
        if num_features <= 0:
            raise ValueError("num_features must be positive")
        if not 0.0 < momentum <= 1.0:
            raise ValueError("momentum must be in (0, 1]")
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.gamma = Parameter(np.ones(num_features))
        self.beta = Parameter(np.zeros(num_features))
        self.register_buffer("running_mean", np.zeros(num_features))
        self.register_buffer("running_var", np.ones(num_features))

    def _reduce_axes(self, x: np.ndarray) -> tuple:
        raise NotImplementedError

    def _channel_shape(self, x: np.ndarray) -> tuple:
        raise NotImplementedError

    def forward(self, x: np.ndarray) -> np.ndarray:
        axes = self._reduce_axes(x)
        shape = self._channel_shape(x)
        out = None
        if self.training:
            m = float(np.prod([x.shape[a] for a in axes]))
            # x - mean once, by the operations np.mean and np.var use, so
            # the statistics keep their bits.  x_hat and the squares keep
            # x's memory layout, and the squares' buffer becomes the output.
            mean = np.add.reduce(x, axes, keepdims=True) / m
            x_hat = np.subtract(x, mean)
            out = np.square(x_hat)
            var = out.sum(axis=axes) / m
            # Running var uses the unbiased estimator, as in PyTorch.
            unbiased = var * m / max(m - 1.0, 1.0)
            self.set_buffer(
                "running_mean",
                (1 - self.momentum) * self.running_mean
                + self.momentum * mean.reshape(-1),
            )
            self.set_buffer(
                "running_var",
                (1 - self.momentum) * self.running_var + self.momentum * unbiased,
            )
        else:
            x_hat = np.subtract(x, self.running_mean.reshape(shape))
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat *= inv_std.reshape(shape)
        if _grad_enabled.get():
            self._saved = (x_hat, inv_std, axes, shape)
        elif out is None:
            # No backward follows: the output overwrites x_hat's buffer.
            out = x_hat
        out = np.multiply(self.gamma.data.reshape(shape), x_hat, out=out)
        out += self.beta.data.reshape(shape)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """The input gradient, written into x_hat's memory (its layout).

        numpy's reduction order follows memory layout, so each channel sum
        reduces an array laid out as the plain expression's temporary was:
        the products in one scratch buffer laid out as numpy lays out
        ``grad_out * x_hat`` (NCHW for the gradients the layers return).
        ``grad_out`` itself is never written.
        """
        x_hat, inv_std, axes, shape = self._pop_saved()
        gamma = self.gamma.data.reshape(shape)
        scratch = np.multiply(grad_out, x_hat)
        self.gamma.grad += scratch.sum(axis=axes)
        self.beta.grad += grad_out.sum(axis=axes)
        if not self.training:
            # Eval mode: mean/var are constants.
            grad_x = np.multiply(grad_out, gamma, out=x_hat)
            grad_x *= inv_std.reshape(shape)
            return grad_x
        m = float(np.prod([grad_out.shape[a] for a in axes]))
        # grad_xhat = grad_out * gamma is summed in the layout numpy gives
        # it, grad_out's own: in scratch only when scratch has that layout.
        same_layout = scratch.strides == grad_out.strides
        grad_xhat = np.multiply(grad_out, gamma, out=scratch if same_layout else None)
        sum_g = grad_xhat.sum(axis=axes).reshape(shape)
        np.multiply(grad_xhat, x_hat, out=scratch)
        sum_gx = scratch.sum(axis=axes).reshape(shape)
        # (inv_std / m) * (m * grad_xhat - sum_g - x_hat * sum_gx)
        grad_x = np.multiply(x_hat, sum_gx, out=x_hat)
        diff = np.multiply(grad_out, gamma, out=scratch)
        diff *= m
        diff -= sum_g
        np.subtract(diff, grad_x, out=grad_x)
        grad_x *= inv_std.reshape(shape) / m
        return grad_x


class BatchNorm2d(_BatchNorm):
    """Batch norm over NCHW tensors (per-channel statistics)."""

    def _reduce_axes(self, x: np.ndarray) -> tuple:
        if x.ndim != 4 or x.shape[1] != self.num_features:
            raise ValueError(
                f"expected input (N, {self.num_features}, H, W), got {x.shape}"
            )
        return (0, 2, 3)

    def _channel_shape(self, x: np.ndarray) -> tuple:
        return (1, self.num_features, 1, 1)


class BatchNorm1d(_BatchNorm):
    """Batch norm over (N, C) feature matrices."""

    def _reduce_axes(self, x: np.ndarray) -> tuple:
        if x.ndim != 2 or x.shape[1] != self.num_features:
            raise ValueError(
                f"expected input (N, {self.num_features}), got {x.shape}"
            )
        return (0,)

    def _channel_shape(self, x: np.ndarray) -> tuple:
        return (1, self.num_features)


class GroupNorm(Module):
    """Group normalisation over NCHW tensors (Wu & He, 2018).

    Normalises each sample's channels in ``num_groups`` groups, with no
    dependence on batch statistics — attractive for edge deployment,
    where BatchNorm's running statistics go stale the moment the
    crossbar weights drift or fault (see
    :func:`repro.core.recalibrate_batchnorm`).  Behaviour is identical in
    train and eval mode.
    """

    def __init__(
        self, num_groups: int, num_channels: int, eps: float = 1e-5
    ) -> None:
        super().__init__()
        if num_groups < 1 or num_channels < 1:
            raise ValueError("num_groups and num_channels must be positive")
        if num_channels % num_groups != 0:
            raise ValueError(
                f"num_channels {num_channels} not divisible by "
                f"num_groups {num_groups}"
            )
        self.num_groups = num_groups
        self.num_channels = num_channels
        self.eps = eps
        self.gamma = Parameter(np.ones(num_channels))
        self.beta = Parameter(np.zeros(num_channels))

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.num_channels:
            raise ValueError(
                f"expected input (N, {self.num_channels}, H, W), "
                f"got {x.shape}"
            )
        n, c, h, w = x.shape
        g = self.num_groups
        grouped = x.reshape(n, g, c // g * h * w)
        mean = grouped.mean(axis=2, keepdims=True)
        var = grouped.var(axis=2, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = ((grouped - mean) * inv_std).reshape(n, c, h, w)
        self._saved = (x_hat, inv_std, (n, c, h, w))
        return (
            self.gamma.data.reshape(1, c, 1, 1) * x_hat
            + self.beta.data.reshape(1, c, 1, 1)
        )

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        x_hat, inv_std, (n, c, h, w) = self._pop_saved()
        g = self.num_groups
        self.gamma.grad += (grad_out * x_hat).sum(axis=(0, 2, 3))
        self.beta.grad += grad_out.sum(axis=(0, 2, 3))
        grad_xhat = grad_out * self.gamma.data.reshape(1, c, 1, 1)
        grouped_g = grad_xhat.reshape(n, g, c // g * h * w)
        grouped_x = x_hat.reshape(n, g, c // g * h * w)
        m = grouped_g.shape[2]
        sum_g = grouped_g.sum(axis=2, keepdims=True)
        sum_gx = (grouped_g * grouped_x).sum(axis=2, keepdims=True)
        grad_grouped = (inv_std / m) * (
            m * grouped_g - sum_g - grouped_x * sum_gx
        )
        return grad_grouped.reshape(n, c, h, w)
