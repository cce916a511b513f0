"""Dual-path hyperprior-guided deep unfolding for block-based compressive sensing."""

from . import ops
from .autograd import Tensor, backward, default_dtype, no_grad, precision, tensor
from .conv import conv2d, conv_transpose2x
from .nn import Adam, Module, Parameter

__version__ = "0.1.0"
