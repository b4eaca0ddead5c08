"""Indentation-aware source-code emitter."""

from __future__ import annotations

from typing import Iterable, List


class CodeEmitter:
    """Accumulates lines of Python source with managed indentation."""

    def __init__(self, indent_str: str = "    ") -> None:
        self._lines: List[str] = []
        self._indent = 0
        self._indent_str = indent_str

    # ------------------------------------------------------------------
    def line(self, text: str = "") -> "CodeEmitter":
        """Emit one line at the current indentation (empty line when blank)."""
        if text:
            self._lines.append(f"{self._indent_str * self._indent}{text}")
        else:
            self._lines.append("")
        return self

    def lines(self, texts: Iterable[str]) -> "CodeEmitter":
        """Emit several lines."""
        for text in texts:
            self.line(text)
        return self

    def extend(self, texts: Iterable[str]) -> "CodeEmitter":
        """Emit text already indented, as it is (one or more lines each)."""
        self._lines.extend(texts)
        return self

    def comment(self, text: str) -> "CodeEmitter":
        """Emit a ``#`` comment line."""
        return self.line(f"# {text}")

    def blank(self, count: int = 1) -> "CodeEmitter":
        """Emit blank lines."""
        for _ in range(count):
            self.line("")
        return self

    def docstring(self, text: str) -> "CodeEmitter":
        """Emit a (possibly multi-line) docstring."""
        lines = text.strip("\n").split("\n")
        if len(lines) == 1:
            return self.line(f'"""{lines[0]}"""')
        self.line(f'"""{lines[0]}')
        for inner in lines[1:]:
            self.line(inner)
        return self.line('"""')

    # ------------------------------------------------------------------
    def indent(self) -> "CodeEmitter":
        """Increase indentation by one level."""
        self._indent += 1
        return self

    def dedent(self) -> "CodeEmitter":
        """Decrease indentation by one level."""
        if self._indent == 0:
            raise ValueError("cannot dedent below zero")
        self._indent -= 1
        return self

    class _Block:
        def __init__(self, emitter: "CodeEmitter") -> None:
            self.emitter = emitter

        def __enter__(self) -> "CodeEmitter":
            return self.emitter.indent()

        def __exit__(self, *exc) -> None:
            self.emitter.dedent()

    def block(self, header: str) -> "CodeEmitter._Block":
        """Emit ``header`` and return a context manager indenting its body."""
        self.line(header)
        return CodeEmitter._Block(self)

    # ------------------------------------------------------------------
    def source(self) -> str:
        """The accumulated source code."""
        return "\n".join(self._lines) + "\n"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.source()
