"""Model adapters: a deterministic mock and a generic remote completion client."""

from __future__ import annotations

import os

__all__ = ["MockAdapter", "RemoteAdapter", "make_adapter"]

ENV_URL = "SPARSELAB_REMOTE_URL"
ENV_TOKEN = "SPARSELAB_REMOTE_TOKEN"
ENV_MODEL = "SPARSELAB_REMOTE_MODEL"


class MockAdapter:
    """Deterministic stand-in for a model endpoint.

    In echo mode the runner registers a reference response per prompt before
    generating; empty mode returns no text at all (every sample should then
    parse as failed and score zero). A custom responder callable overrides
    both modes.
    """

    def __init__(self, mode: str = "echo", responder=None) -> None:
        if mode not in ("echo", "empty"):
            raise ValueError(f"unknown mock mode {mode!r}")
        self.mode = mode
        self.responder = responder
        self.calls = 0
        self._responses: dict[str, str] = {}

    def register(self, prompt: str, response: str) -> None:
        self._responses[prompt] = response

    def generate(self, prompt: str, max_new_tokens: int = 512) -> str:
        self.calls += 1
        if self.responder is not None:
            return self.responder(prompt)
        if self.mode == "empty":
            return ""
        return self._responses.get(prompt, "")


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

    def generate(self, prompt: str, max_new_tokens: int = 512) -> str:
        import requests

        self.calls += 1
        headers = {}
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"
        payload = {
            "model": self.model,
            "prompt": prompt,
            "max_tokens": max_new_tokens,
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
