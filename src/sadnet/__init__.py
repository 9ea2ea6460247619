"""Spatial-adaptive image denoising on a minimal autodiff tensor core."""

from .data import (ImageBuffer, NoiseSpec, add_awgn, augment, from_tensor,
                   load_image, save_image, to_tensor)
from .deform import modulated_deform_conv2d
from .errors import ConfigurationError, DataError, NumericError, UsageError
from .metrics import MetricReport, psnr, ssim
from .model import (ModelConfig, SADNet, count_params_flops, export_offsets,
                    upsample_offsets)
from .optim import AdamState, adam_step
from .tensor import Tensor, conv2d, conv2d_transpose, loss
from .training import TrainConfig, denoise_image, evaluate, lr_schedule, train

__version__ = "0.1.0"

__all__ = [
    "AdamState", "ConfigurationError", "DataError", "ImageBuffer",
    "MetricReport", "ModelConfig", "NoiseSpec", "NumericError", "SADNet",
    "Tensor", "TrainConfig", "UsageError", "adam_step", "add_awgn", "augment",
    "conv2d", "conv2d_transpose", "count_params_flops",
    "denoise_image", "evaluate", "export_offsets", "from_tensor",
    "load_image", "loss", "lr_schedule",
    "modulated_deform_conv2d", "psnr", "save_image", "ssim", "to_tensor",
    "train", "upsample_offsets",
]
