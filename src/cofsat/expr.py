"""Tiny text syntax for Boolean functions, mainly for tests and debugging.

Grammar, loosest binding first::

    expr   := xor ('+' xor)*            # OR
    xor    := term ('^' term)*          # XOR
    term   := factor (('*')? factor)*   # AND, juxtaposition allowed
    factor := atom "'"*                 # postfix complement
    atom   := '0' | '1' | 'x' digits | '(' expr ')'

Variables are x0 through x15.  ``parse_function("x0'x1 + x2", 3)`` is the
3-variable function (NOT x0 AND x1) OR x2.  When the variable count is
omitted it defaults to one past the highest index mentioned.
"""

from __future__ import annotations

from .boolfn import TruthTable

__all__ = ["parse_function"]


def _tokenize(text: str) -> list[str]:
    import re  # here, so importing cofsat skips it; re caches the pattern
    token = re.compile(r"\s*(x\d+|[01+*^'()])")
    tokens = []
    pos = 0
    while pos < len(text):
        m = token.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise ValueError(f"bad character at position {pos}: {text[pos:]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[str], num_vars: int):
        self.tokens = tokens
        self.pos = 0
        self.num_vars = num_vars

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ValueError("unexpected end of expression")
        self.pos += 1
        return tok

    def expr(self) -> TruthTable:
        out = self.xor()
        while self.peek() == "+":
            self.take()
            out = out | self.xor()
        return out

    def xor(self) -> TruthTable:
        out = self.term()
        while self.peek() == "^":
            self.take()
            out = out ^ self.term()
        return out

    def term(self) -> TruthTable:
        out = self.factor()
        while True:
            tok = self.peek()
            if tok == "*":
                self.take()
                out = out & self.factor()
            elif tok is not None and (tok in "01(" or tok.startswith("x")):
                out = out & self.factor()
            else:
                return out

    def factor(self) -> TruthTable:
        out = self.atom()
        while self.peek() == "'":
            self.take()
            out = ~out
        return out

    def atom(self) -> TruthTable:
        tok = self.take()
        if tok == "0":
            return TruthTable.constant(self.num_vars, False)
        if tok == "1":
            return TruthTable.constant(self.num_vars, True)
        if tok == "(":
            out = self.expr()
            if self.take() != ")":
                raise ValueError("expected ')'")
            return out
        if tok.startswith("x"):
            index = int(tok[1:])
            if index >= self.num_vars:
                raise ValueError(
                    f"variable x{index} outside universe of {self.num_vars} variables")
            return TruthTable.variable(self.num_vars, index)
        raise ValueError(f"unexpected token {tok!r}")


def parse_function(text: str, num_vars: int | None = None) -> TruthTable:
    """Parse a function literal like ``"x0'x1 + x1x2"`` into a TruthTable."""
    tokens = _tokenize(text)
    if num_vars is None:
        indices = [int(t[1:]) for t in tokens if t.startswith("x")]
        num_vars = max(indices) + 1 if indices else 0
    parser = _Parser(tokens, num_vars)
    out = parser.expr()
    if parser.peek() is not None:
        raise ValueError(f"trailing input at token {parser.pos}: {parser.peek()!r}")
    return out
