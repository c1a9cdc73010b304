"""Endpoint configuration: which model to call, where, and under what limits."""

import math
from dataclasses import dataclass, field

from .._util import build_config, json_dumps, read_config
from ..errors import ConfigError, ContractError


@dataclass(frozen=True)
class ModelEndpoint:
    """One model behind one URL.

    ``base_url`` selects the transport: ``http(s)://...`` for chat-completion
    compatible servers, ``mock:<kind>?param=value`` for scripted backends.
    API keys never live in config files; ``api_key_env`` names the environment
    variable that the HTTP backend reads once, when it is built.
    """

    base_url: str
    model_id: str = "default"
    api_key_env: str | None = None
    max_prompt_tokens: int | None = None
    max_output_tokens: int = 1024
    temperature: float = 1.0
    retry_limit: int = 3
    backoff_base: float = 0.5
    timeout: float = 120.0  # seconds per request; .inf (or 1e9 and up) waits as long as it takes
    max_in_flight: int = 8
    judge_samples: int = 8
    think_open: str = "<think>"
    think_close: str = "</think>"
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.base_url:
            raise ConfigError("endpoint base_url must be non-empty")
        if self.retry_limit < 0:
            raise ConfigError("retry_limit must be >= 0")
        if self.max_prompt_tokens is not None and self.max_prompt_tokens <= 0:
            raise ConfigError("max_prompt_tokens must be positive when set")
        if self.max_output_tokens < 1:
            raise ConfigError(f"max_output_tokens must be >= 1, got {self.max_output_tokens}")
        if not 0 <= self.temperature < math.inf:
            raise ConfigError(f"temperature must be finite and >= 0, got {self.temperature}")
        if not 0 <= self.backoff_base < math.inf:
            raise ConfigError(f"backoff_base must be finite and >= 0, got {self.backoff_base}")
        if self.timeout <= 0:
            raise ConfigError(f"timeout must be positive, got {self.timeout}")
        if self.judge_samples < 1:
            raise ConfigError("judge_samples must be >= 1")
        if self.max_in_flight < 1:
            raise ConfigError("max_in_flight must be >= 1")
        unknown = [f"extra.{key}" for key in self.extra if key != "body"]
        if unknown:
            raise ConfigError(f"unknown endpoint setting {', '.join(unknown)}: extra holds only body")
        if not isinstance(self.extra.get("body", {}), dict):
            raise ConfigError(f"extra.body must be a mapping, got {self.extra['body']!r}")
        try:  # the body is posted as JSON, which has no NaN or ±inf
            json_dumps(self.extra.get("body", {}))
        except (ContractError, TypeError) as exc:
            raise ConfigError(f"extra.body must be strict JSON: {exc.__cause__ or exc}") from None

    @classmethod
    def from_dict(cls, data: dict) -> "ModelEndpoint":
        return build_config(cls, data, what="endpoint")


def load_endpoint(path: str) -> ModelEndpoint:
    """Read an endpoint config file (``.json``, else YAML)."""
    return ModelEndpoint.from_dict(read_config(path))
