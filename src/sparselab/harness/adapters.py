"""Model adapters: a deterministic mock and a generic remote completion client.

``generate(prompt, sample)`` answers one prompt; the mock reads the sample it
was rendered from, an endpoint sees only the prompt."""

from __future__ import annotations

import os

from ..tasks import format_reference_response

__all__ = ["MAX_NEW_TOKENS", "MockAdapter", "RemoteAdapter", "make_adapter"]

ENV_URL = "SPARSELAB_REMOTE_URL"
ENV_TOKEN = "SPARSELAB_REMOTE_TOKEN"
ENV_MODEL = "SPARSELAB_REMOTE_MODEL"
MAX_NEW_TOKENS = 512


class MockAdapter:
    """Deterministic stand-in for a model endpoint.

    Echo mode answers with the sample's reference response, so every record
    scores 1.0; empty mode returns no text at all (every sample should then
    parse as failed and score zero).
    """

    def __init__(self, mode: str = "echo") -> None:
        if mode not in ("echo", "empty"):
            raise ValueError(f"unknown mock mode {mode!r}")
        self.mode = mode
        self.calls = 0

    def generate(self, prompt: str, sample) -> str:
        self.calls += 1
        if self.mode == "empty":
            return ""
        return format_reference_response(sample)


class RemoteAdapter:
    """Minimal text-completion client.

    POSTs ``{"model", "prompt", "max_tokens"}`` to the endpoint in
    SPARSELAB_REMOTE_URL with a bearer token from SPARSELAB_REMOTE_TOKEN and
    model name from SPARSELAB_REMOTE_MODEL. Accepts either a bare
    ``{"text": ...}`` response or the common ``{"choices": [{"text": ...}]}``
    shape. No vendor-specific fields, no sparse-plan injection.
    """

    def __init__(self, url: str | None = None, token: str | None = None,
                 model: str | None = None, timeout: float = 120.0) -> None:
        self.url = url or os.environ.get(ENV_URL)
        self.token = token or os.environ.get(ENV_TOKEN)
        self.model = model or os.environ.get(ENV_MODEL)
        self.timeout = timeout
        self.calls = 0
        if not self.url:
            raise ValueError(f"remote adapter needs an endpoint ({ENV_URL})")

    def generate(self, prompt: str, sample) -> str:
        import requests

        self.calls += 1
        headers = {}
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"
        payload = {
            "model": self.model,
            "prompt": prompt,
            "max_tokens": MAX_NEW_TOKENS,
        }
        response = requests.post(
            self.url, json=payload, headers=headers, timeout=self.timeout
        )
        response.raise_for_status()
        body = response.json()
        if "text" in body:
            return body["text"]
        return body["choices"][0]["text"]


def make_adapter(config) -> MockAdapter | RemoteAdapter:
    if config.adapter == "mock":
        return MockAdapter(mode=config.mock_mode)
    return RemoteAdapter()
