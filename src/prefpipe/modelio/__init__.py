"""Model transport layer: endpoint configs, HTTP and scripted backends, and the
retrying client that the pipeline stages talk to."""

from .endpoints import ModelEndpoint, load_endpoint
from .backends import (
    Backend,
    RawCompletion,
    HttpBackend,
    ScriptBackend,
    build_backend,
)
from .parsing import parse_selection, split_reasoning
from .client import GenerationResult, JudgeVerdict, ModelClient, label_probability

__all__ = [
    "Backend",
    "GenerationResult",
    "HttpBackend",
    "JudgeVerdict",
    "ModelClient",
    "ModelEndpoint",
    "RawCompletion",
    "ScriptBackend",
    "build_backend",
    "label_probability",
    "load_endpoint",
    "parse_selection",
    "split_reasoning",
]
