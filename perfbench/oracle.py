"""The simulated model: derives each completion from its prompt.

The in-process backend and the HTTP stub share this rule, so a request gets
the same text whichever way it travels. Only the target block (after the
last block separator) is read: a recitation prompt ends with the bare
"Recitation:" cue and yields the question's sampled recitations, and an
answer prompt carries one recitation and yields the answer written for it.
As in the scripted backend, sample i under seed s is entry (s + i) mod K.
"""

from __future__ import annotations

import json
from pathlib import Path

BLOCK_SEPARATOR = "\n\n\n"
COMPONENT_SEPARATOR = "\n\n"


class UnknownPrompt(KeyError):
    pass


class Oracle:
    def __init__(self, table: dict):
        self.recitations: dict[str, list[str]] = table["recitations"]
        self.answers: dict[str, list] = table["answers"]

    @classmethod
    def load(cls, path: str | Path) -> "Oracle":
        return cls(json.loads(Path(path).read_text(encoding="utf-8")))

    def request_id(self, prompt: str, seed: int) -> tuple[str, str, int]:
        """(stage, question, path index) of a single-sample request."""
        return self._parse(prompt, seed)[:3]

    def _parse(self, prompt: str, seed: int) -> tuple[str, str, int, str]:
        target = prompt[prompt.rfind(BLOCK_SEPARATOR) + len(BLOCK_SEPARATOR):]
        parts = target.split(COMPONENT_SEPARATOR)
        try:
            if parts[-1] == "Recitation:" and parts[0].startswith("Question: "):
                question = parts[0][len("Question: "):]
                return "recite", question, seed % len(self.recitations[question]), ""
            if parts[-1] == "Answer:" and parts[0].startswith("Recitation: "):
                question, index, answer = self.answers[parts[0][len("Recitation: "):]]
                return "answer", question, index, answer
        except KeyError:
            pass
        raise UnknownPrompt(target[:120])

    def complete(self, prompt: str, seed: int, n: int) -> list[str]:
        stage, question, index, answer = self._parse(prompt, seed)
        if stage == "answer":
            return [" " + answer]
        samples = self.recitations[question]
        return [" " + samples[(index + i) % len(samples)] for i in range(n)]
