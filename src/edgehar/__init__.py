"""Desk-scale, bit-accurate model of a heterogeneous-sensor recognition
pipeline: multi-rate acquisition simulation, sliding-window framing, a
branched feature-fusion CNN with importance-based modality selection,
symmetric post-training quantization, and integer inference with cycle and
hardware-resource accounting."""

from . import daq, engine, fxp, model, quantize, train
from .daq import CATALOG, SensorSpec, WindowConfig, gen_dataset, start_sync, stream_frames
from .engine import CycleReport, ResourceReport, estimate_resources, qinfer, schedule_latency
from .model import Frame, ModelParams, ModelSpec, count_params
from .quantize import QuantizedModel, calibrate, quantize as quantize_model, sweep_bits
from .train import TrainConfig, select_modalities, train as train_model, train_importance

__version__ = "0.1.0"
