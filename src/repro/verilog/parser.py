"""Recursive-descent parser for the supported Verilog-2001 subset.

The parser consumes the token stream produced by
:mod:`repro.verilog.lexer` and builds the AST defined in
:mod:`repro.verilog.ast_nodes`.  It recognises everything the PyraNet
corpus generators emit plus the usual real-world variations: ANSI and
non-ANSI port lists, parameter ports, generate blocks, functions/tasks,
gate primitives, and full expressions.

Errors raise :class:`ParseError` carrying line/column information; the
syntax checker converts these into diagnostics.
"""

from __future__ import annotations

import re
from contextvars import ContextVar
from typing import List, Optional, Tuple

from . import ast_nodes as ast
from .lexer import Lexer, LexError, Token, TokenKind


class ParseError(Exception):
    """Raised on a syntax error, with source position."""

    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


_NUMBER_RE = re.compile(
    r"^\s*(\d[\d_]*)?\s*'\s*([sS]?)([bodhBODH])\s*([0-9a-fA-F_xXzZ?]+)\s*$"
)

_BASE_BITS = {"b": 1, "o": 3, "d": 0, "h": 4}

#: Digits each base admits, x/z/? included.
_BASE_DIGITS = {
    "b": frozenset("01xXzZ?"),
    "o": frozenset("01234567xXzZ?"),
    "d": frozenset("0123456789xXzZ?"),
    "h": frozenset("0123456789abcdefABCDEFxXzZ?"),
}

#: Net-declaration keywords accepted at module scope.
_NET_KINDS = frozenset(
    ["wire", "reg", "integer", "real", "time", "supply0", "supply1",
     "tri", "tri0", "tri1", "triand", "trior", "wand", "wor", "genvar"]
)

#: Primitive gate keywords.
_GATE_KINDS = frozenset(
    ["and", "or", "not", "nand", "nor", "xor", "xnor", "buf",
     "bufif0", "bufif1", "notif0", "notif1"]
)


def parse_number_literal(text: str, line: int = 0,
                         col: int = 0) -> ast.Number:
    """Decode a Verilog number literal into an :class:`ast.Number`.

    Handles plain decimal (``42``), sized/based (``8'hFF``), unsized
    based (``'b0``), signed (``4'sb1010``), and x/z digits
    (``4'b10xz``).  Underscores are ignored.  ``?`` is an alias for z.
    A malformed literal, or a digit outside its base (``4'b102``),
    raises :class:`ParseError` at ``line``/``col``.
    """
    text = text.strip()
    match = _NUMBER_RE.match(text)
    if not match:
        clean = text.replace("_", "")
        try:
            return ast.Number(
                line=line, width=None, value=int(clean), signed=True, text=text
            )
        except ValueError:
            raise ParseError(f"invalid number literal {text!r}", line, col)
    size_txt, sign_txt, base_ch, digits = match.groups()
    width = int(size_txt.replace("_", "")) if size_txt else None
    signed = bool(sign_txt)
    base_ch = base_ch.lower()
    digits = digits.replace("_", "")
    for ch in digits:
        if ch not in _BASE_DIGITS[base_ch]:
            raise ParseError(
                f"digit {ch!r} out of range in number literal {text!r}",
                line, col)
    value = 0
    xz_mask = 0
    z_mask = 0
    if base_ch == "d":
        if any(c in "xXzZ?" for c in digits):
            # 'dx / 'dz: all bits unknown.
            nbits = width or 32
            xz_mask = (1 << nbits) - 1
            if digits[0] in "zZ?":
                z_mask = xz_mask
        else:
            value = int(digits)
    else:
        bits_per = _BASE_BITS[base_ch]
        for ch in digits:
            value <<= bits_per
            xz_mask <<= bits_per
            z_mask <<= bits_per
            digit_mask = (1 << bits_per) - 1
            if ch in "xX":
                xz_mask |= digit_mask
            elif ch in "zZ?":
                xz_mask |= digit_mask
                z_mask |= digit_mask
            else:
                value |= int(ch, 16)
    if width is not None:
        full = (1 << width) - 1
        # x/z in the top digit extends leftward per the LRM.
        top_bit = 1 << (len(digits) * _BASE_BITS.get(base_ch, 0) - 1) if base_ch != "d" else 0
        if top_bit and (xz_mask & top_bit):
            ext = full & ~((top_bit << 1) - 1)
            xz_mask |= ext
            if z_mask & top_bit:
                z_mask |= ext
        value &= full
        xz_mask &= full
        z_mask &= full
    return ast.Number(
        line=line, width=width, value=value, xz_mask=xz_mask,
        z_mask=z_mask, signed=signed, text=text,
    )


class Parser:
    """Token-stream parser producing :class:`ast.SourceFile`."""

    def __init__(self, source: str) -> None:
        try:
            self._tokens = Lexer(source).tokenize()
        except LexError as exc:
            raise ParseError(exc.message, exc.line, exc.col) from exc
        self._pos = 0

    # -- token stream helpers ------------------------------------------------

    @property
    def _tok(self) -> Token:
        return self._tokens[self._pos]

    def _peek(self, offset: int = 0) -> Token:
        index = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _next(self) -> Token:
        tok = self._tok
        if tok.kind is not TokenKind.EOF:
            self._pos += 1
        return tok

    def _error(self, message: str) -> ParseError:
        tok = self._tok
        return ParseError(message, tok.line, tok.col)

    def _expect_op(self, op: str) -> Token:
        if not self._tok.is_op(op):
            raise self._error(f"expected {op!r}, found {self._tok.text!r}")
        return self._next()

    def _expect_kw(self, kw: str) -> Token:
        if not self._tok.is_kw(kw):
            raise self._error(f"expected {kw!r}, found {self._tok.text!r}")
        return self._next()

    def _expect_ident(self) -> Token:
        if self._tok.kind is not TokenKind.IDENT:
            raise self._error(f"expected identifier, found {self._tok.text!r}")
        return self._next()

    def _accept_op(self, *ops: str) -> Optional[Token]:
        if self._tok.is_op(*ops):
            return self._next()
        return None

    def _accept_kw(self, *kws: str) -> Optional[Token]:
        if self._tok.is_kw(*kws):
            return self._next()
        return None

    # -- top level -------------------------------------------------------------

    def parse_source(self) -> ast.SourceFile:
        """Parse a complete compilation unit."""
        source = ast.SourceFile()
        while self._tok.kind is not TokenKind.EOF:
            if self._tok.is_kw("module"):
                source.modules.append(self.parse_module())
            else:
                raise self._error(
                    f"expected 'module', found {self._tok.text!r}"
                )
        return source

    # -- module ------------------------------------------------------------

    def parse_module(self) -> ast.Module:
        start = self._expect_kw("module")
        name = self._expect_ident().text
        module = ast.Module(name=name, line=start.line)
        if self._accept_op("#"):
            self._parse_parameter_port_list(module)
        if self._tok.is_op("("):
            self._parse_port_list(module)
        self._expect_op(";")
        while not self._tok.is_kw("endmodule"):
            if self._tok.kind is TokenKind.EOF:
                raise self._error("unexpected end of file inside module")
            self._parse_module_item(module)
        self._next()  # endmodule
        self._complete_non_ansi_ports(module)
        return module

    def _parse_parameter_port_list(self, module: ast.Module) -> None:
        """Parse ``#(parameter A = 1, parameter [3:0] B = 2, ...)``."""
        self._expect_op("(")
        while not self._tok.is_op(")"):
            self._accept_kw("parameter")
            signed = bool(self._accept_kw("signed"))
            rng = self._parse_optional_range()
            pname = self._expect_ident()
            self._expect_op("=")
            value = self.parse_expression()
            module.parameters.append(
                ast.Parameter(
                    name=pname.text, value=value, local=False,
                    range=rng, signed=signed, line=pname.line,
                )
            )
            if not self._accept_op(","):
                break
        self._expect_op(")")

    def _parse_port_list(self, module: ast.Module) -> None:
        """Parse an ANSI or non-ANSI port list."""
        self._expect_op("(")
        if self._accept_op(")"):
            return
        # ANSI style starts with a direction keyword; non-ANSI is names only.
        direction: Optional[str] = None
        net_kind = "wire"
        rng: Optional[ast.Range] = None
        signed = False
        while True:
            tok = self._tok
            if tok.is_kw("input", "output", "inout"):
                direction = self._next().text
                net_kind = "wire"
                signed = False
                rng = None
                if self._tok.is_kw("wire", "reg", "integer"):
                    net_kind = self._next().text
                if self._accept_kw("signed"):
                    signed = True
                rng = self._parse_optional_range()
            elif tok.is_kw("signed"):
                self._next()
                signed = True
                rng = self._parse_optional_range()
            name_tok = self._expect_ident()
            module.ports.append(
                ast.Port(
                    direction=direction, net_kind=net_kind,
                    name=name_tok.text, range=rng, signed=signed,
                    line=name_tok.line,
                )
            )
            if self._accept_op(","):
                continue
            break
        self._expect_op(")")

    def _complete_non_ansi_ports(self, module: ast.Module) -> None:
        """Fill in direction/range on non-ANSI ports from body decls."""
        pending = {p.name: p for p in module.ports if p.direction is None}
        if not pending:
            return
        for item in module.items:
            if isinstance(item, ast.Port) and item.name in pending:
                port = pending[item.name]
                port.direction = item.direction
                port.range = item.range
                port.signed = item.signed
                if item.net_kind != "wire":
                    port.net_kind = item.net_kind
            elif isinstance(item, ast.Decl) and item.name in pending:
                port = pending[item.name]
                if item.kind == "reg":
                    port.net_kind = "reg"

    # -- module items ----------------------------------------------------------

    def _parse_module_item(self, module: ast.Module) -> None:
        tok = self._tok
        if tok.is_kw("input", "output", "inout"):
            self._parse_port_declaration(module)
        elif tok.is_kw("parameter", "localparam"):
            self._parse_parameter_decl(module)
        elif tok.kind is TokenKind.KEYWORD and tok.text in _NET_KINDS:
            self._parse_net_declaration(module)
        elif tok.is_kw("assign"):
            self._parse_continuous_assign(module)
        elif tok.is_kw("always"):
            module.items.append(self._parse_always())
        elif tok.is_kw("initial"):
            start = self._next()
            body = self.parse_statement()
            module.items.append(ast.Initial(body=body, line=start.line))
        elif tok.is_kw("function"):
            module.items.append(self._parse_function())
        elif tok.is_kw("task"):
            module.items.append(self._parse_task())
        elif tok.is_kw("generate"):
            self._next()
            while not self._tok.is_kw("endgenerate"):
                if self._tok.kind is TokenKind.EOF:
                    raise self._error("unexpected EOF inside generate")
                self._parse_generate_item(module.items)
            self._next()
        elif tok.is_kw("for", "if"):
            # Generate constructs are legal without generate/endgenerate.
            self._parse_generate_item(module.items)
        elif tok.is_kw("defparam"):
            self._next()
            # defparam path = value; — parsed and discarded.
            self.parse_expression()
            self._expect_op("=")
            self.parse_expression()
            self._expect_op(";")
        elif tok.kind is TokenKind.KEYWORD and tok.text in _GATE_KINDS:
            self._parse_gate_instances(module)
        elif tok.kind is TokenKind.IDENT:
            self._parse_instantiation(module)
        elif tok.is_op(";"):
            self._next()
        else:
            raise self._error(f"unexpected token {tok.text!r} in module body")

    def _parse_port_declaration(self, module: ast.Module) -> None:
        """Body-level ``input/output [wire|reg] [signed] [range] names;``"""
        direction = self._next().text
        net_kind = "wire"
        if self._tok.is_kw("wire", "reg", "integer"):
            net_kind = self._next().text
        signed = bool(self._accept_kw("signed"))
        rng = self._parse_optional_range()
        while True:
            name_tok = self._expect_ident()
            init = None
            if self._accept_op("="):
                init = self.parse_expression()
            port_item = ast.Port(
                direction=direction, net_kind=net_kind, name=name_tok.text,
                range=rng, signed=signed, line=name_tok.line,
            )
            module.items.append(port_item)
            existing = module.find_port(name_tok.text)
            if existing is not None and existing.direction is None:
                pass  # completed by _complete_non_ansi_ports
            elif existing is None:
                # Port declared only in the body (a non-ANSI corner case):
                # add it to the port list to be permissive.
                module.ports.append(port_item)
            if net_kind == "reg" and init is not None:
                module.items.append(
                    ast.Decl(
                        kind="reg", name=name_tok.text, range=rng,
                        signed=signed, init=init, line=name_tok.line,
                    )
                )
            if not self._accept_op(","):
                break
        self._expect_op(";")

    def _parse_parameter_decl(self, module: ast.Module) -> None:
        local = self._next().text == "localparam"
        signed = bool(self._accept_kw("signed"))
        self._accept_kw("integer")
        rng = self._parse_optional_range()
        while True:
            name_tok = self._expect_ident()
            self._expect_op("=")
            value = self.parse_expression()
            module.parameters.append(
                ast.Parameter(
                    name=name_tok.text, value=value, local=local,
                    range=rng, signed=signed, line=name_tok.line,
                )
            )
            if not self._accept_op(","):
                break
        self._expect_op(";")

    def _parse_net_declaration(self, module: ast.Module) -> None:
        kind = self._next().text
        signed = bool(self._accept_kw("signed"))
        rng = self._parse_optional_range()
        while True:
            name_tok = self._expect_ident()
            array_dims: List[ast.Range] = []
            while self._tok.is_op("["):
                array_dims.append(self._parse_range())
            init = None
            if self._accept_op("="):
                init = self.parse_expression()
            module.items.append(
                ast.Decl(
                    kind=kind, name=name_tok.text, range=rng,
                    array_dims=array_dims, signed=signed, init=init,
                    line=name_tok.line,
                )
            )
            if not self._accept_op(","):
                break
        self._expect_op(";")

    def _parse_continuous_assign(self, module: ast.Module) -> None:
        start = self._next()
        delay = None
        if self._accept_op("#"):
            delay = self._parse_delay_value()
        while True:
            target = self._parse_lvalue()
            self._expect_op("=")
            value = self.parse_expression()
            module.items.append(
                ast.ContinuousAssign(
                    target=target, value=value, delay=delay, line=start.line
                )
            )
            if not self._accept_op(","):
                break
        self._expect_op(";")

    def _parse_always(self) -> ast.Always:
        start = self._expect_kw("always")
        sensitivity = None
        if self._accept_op("@"):
            sensitivity = self._parse_sensitivity()
        body = self.parse_statement()
        return ast.Always(sensitivity=sensitivity, body=body, line=start.line)

    def _parse_sensitivity(self) -> ast.SensitivityList:
        if self._accept_op("*"):
            return ast.SensitivityList(star=True)
        self._expect_op("(")
        if self._accept_op("*"):
            self._expect_op(")")
            return ast.SensitivityList(star=True)
        items: List[ast.SensitivityItem] = []
        while True:
            edge = "level"
            if self._tok.is_kw("posedge", "negedge"):
                edge = self._next().text
            expr = self.parse_expression()
            items.append(ast.SensitivityItem(edge=edge, expr=expr))
            if self._accept_op(",") or self._accept_kw("or"):
                continue
            break
        self._expect_op(")")
        return ast.SensitivityList(star=False, items=items)

    def _parse_function(self) -> ast.FunctionDecl:
        start = self._expect_kw("function")
        self._accept_kw("automatic")
        signed = bool(self._accept_kw("signed"))
        kind = "integer" if self._accept_kw("integer") else "reg"
        rng = self._parse_optional_range()
        name = self._expect_ident().text
        func = ast.FunctionDecl(
            name=name, kind=kind, range=rng, signed=signed, line=start.line
        )
        if self._accept_op("("):
            # ANSI function ports.
            while not self._tok.is_op(")"):
                self._expect_kw("input")
                in_kind = "integer" if self._accept_kw("integer") else "wire"
                in_signed = bool(self._accept_kw("signed"))
                in_rng = self._parse_optional_range()
                pname = self._expect_ident().text
                func.inputs.append(
                    ast.Decl(kind=in_kind, name=pname, range=in_rng,
                             signed=in_signed)
                )
                if not self._accept_op(","):
                    break
            self._expect_op(")")
        self._expect_op(";")
        # Non-ANSI input declarations and locals.
        while self._tok.is_kw("input", "reg", "integer"):
            if self._tok.is_kw("input"):
                self._next()
                in_kind = "integer" if self._accept_kw("integer") else "wire"
                in_signed = bool(self._accept_kw("signed"))
                in_rng = self._parse_optional_range()
                while True:
                    pname = self._expect_ident().text
                    func.inputs.append(
                        ast.Decl(kind=in_kind, name=pname, range=in_rng,
                                 signed=in_signed)
                    )
                    if not self._accept_op(","):
                        break
                self._expect_op(";")
            else:
                kind = self._next().text
                l_signed = bool(self._accept_kw("signed"))
                l_rng = self._parse_optional_range()
                while True:
                    lname = self._expect_ident().text
                    func.locals.append(
                        ast.Decl(kind=kind, name=lname, range=l_rng,
                                 signed=l_signed)
                    )
                    if not self._accept_op(","):
                        break
                self._expect_op(";")
        func.body = self.parse_statement()
        self._expect_kw("endfunction")
        return func

    def _parse_task(self) -> ast.TaskDecl:
        start = self._expect_kw("task")
        self._accept_kw("automatic")
        name = self._expect_ident().text
        task = ast.TaskDecl(name=name, line=start.line)
        if self._accept_op("("):
            while not self._tok.is_op(")"):
                direction = "input"
                if self._tok.is_kw("input", "output", "inout"):
                    direction = self._next().text
                t_signed = bool(self._accept_kw("signed"))
                t_rng = self._parse_optional_range()
                pname = self._expect_ident().text
                decl = ast.Decl(kind="reg", name=pname, range=t_rng,
                                signed=t_signed)
                (task.inputs if direction == "input" else task.outputs).append(decl)
                if not self._accept_op(","):
                    break
            self._expect_op(")")
        self._expect_op(";")
        while self._tok.is_kw("input", "output", "reg", "integer"):
            direction_or_kind = self._next().text
            t_signed = bool(self._accept_kw("signed"))
            t_rng = self._parse_optional_range()
            while True:
                pname = self._expect_ident().text
                decl = ast.Decl(kind="reg", name=pname, range=t_rng,
                                signed=t_signed)
                if direction_or_kind == "input":
                    task.inputs.append(decl)
                elif direction_or_kind == "output":
                    task.outputs.append(decl)
                else:
                    task.locals.append(decl)
                if not self._accept_op(","):
                    break
            self._expect_op(";")
        task.body = self.parse_statement()
        self._expect_kw("endtask")
        return task

    def _parse_generate_item(self, items: List[ast.ModuleItem]) -> None:
        if self._tok.is_kw("for"):
            items.append(self._parse_generate_for())
        elif self._tok.is_kw("if"):
            items.append(self._parse_generate_if())
        elif self._tok.is_kw("begin"):
            self._next()
            if self._accept_op(":"):
                self._expect_ident()
            while not self._tok.is_kw("end"):
                self._parse_generate_item(items)
            self._next()
        else:
            # Ordinary module items are allowed inside generate.
            holder = ast.Module()
            self._parse_module_item(holder)
            items.extend(holder.items)

    def _parse_generate_for(self) -> ast.GenerateFor:
        start = self._expect_kw("for")
        self._expect_op("(")
        genvar = self._expect_ident().text
        self._expect_op("=")
        init = self.parse_expression()
        self._expect_op(";")
        cond = self.parse_expression()
        self._expect_op(";")
        step_var = self._expect_ident().text
        if step_var != genvar:
            raise self._error("generate-for must step its own genvar")
        self._expect_op("=")
        step = self.parse_expression()
        self._expect_op(")")
        gen = ast.GenerateFor(
            genvar=genvar, init=init, cond=cond, step=step, line=start.line
        )
        if self._accept_kw("begin"):
            if self._accept_op(":"):
                gen.label = self._expect_ident().text
            while not self._tok.is_kw("end"):
                self._parse_generate_item(gen.items)
            self._next()
        else:
            self._parse_generate_item(gen.items)
        return gen

    def _parse_generate_if(self) -> ast.GenerateIf:
        start = self._expect_kw("if")
        self._expect_op("(")
        cond = self.parse_expression()
        self._expect_op(")")
        gen = ast.GenerateIf(cond=cond, line=start.line)
        self._parse_generate_branch(gen.then_items)
        if self._accept_kw("else"):
            self._parse_generate_branch(gen.else_items)
        return gen

    def _parse_generate_branch(self, items: List[ast.ModuleItem]) -> None:
        if self._accept_kw("begin"):
            if self._accept_op(":"):
                self._expect_ident()
            while not self._tok.is_kw("end"):
                self._parse_generate_item(items)
            self._next()
        else:
            self._parse_generate_item(items)

    def _parse_gate_instances(self, module: ast.Module) -> None:
        gate_kind = self._next().text
        if self._accept_op("#"):
            self._parse_delay_value()
        while True:
            inst_name = ""
            if self._tok.kind is TokenKind.IDENT:
                inst_name = self._next().text
            line = self._tok.line
            self._expect_op("(")
            conns: List[ast.Expr] = []
            while not self._tok.is_op(")"):
                conns.append(self.parse_expression())
                if not self._accept_op(","):
                    break
            self._expect_op(")")
            module.items.append(
                ast.GateInstance(
                    gate_kind=gate_kind, instance_name=inst_name,
                    connections=conns, line=line,
                )
            )
            if not self._accept_op(","):
                break
        self._expect_op(";")

    def _parse_instantiation(self, module: ast.Module) -> None:
        module_name_tok = self._expect_ident()
        param_overrides: List[ast.PortConnection] = []
        if self._accept_op("#"):
            self._expect_op("(")
            param_overrides = self._parse_connection_list()
            self._expect_op(")")
        while True:
            inst_name = self._expect_ident().text
            if self._tok.is_op("["):
                self._parse_range()  # instance arrays: range parsed, ignored
            self._expect_op("(")
            connections = (
                self._parse_connection_list() if not self._tok.is_op(")") else []
            )
            self._expect_op(")")
            module.items.append(
                ast.Instance(
                    module_name=module_name_tok.text,
                    instance_name=inst_name,
                    param_overrides=param_overrides,
                    connections=connections,
                    line=module_name_tok.line,
                )
            )
            if not self._accept_op(","):
                break
        self._expect_op(";")

    def _parse_connection_list(self) -> List[ast.PortConnection]:
        conns: List[ast.PortConnection] = []
        while True:
            line = self._tok.line
            if self._accept_op("."):
                name = self._expect_ident().text
                self._expect_op("(")
                expr = None
                if not self._tok.is_op(")"):
                    expr = self.parse_expression()
                self._expect_op(")")
                conns.append(ast.PortConnection(name=name, expr=expr, line=line))
            elif self._tok.is_op(")"):
                break
            else:
                expr = self.parse_expression()
                conns.append(ast.PortConnection(name=None, expr=expr, line=line))
            if not self._accept_op(","):
                break
        return conns

    # -- statements ----------------------------------------------------------

    def parse_statement(self) -> ast.Stmt:
        """Parse one procedural statement."""
        tok = self._tok
        if tok.is_kw("begin"):
            return self._parse_block()
        if tok.is_kw("if"):
            return self._parse_if()
        if tok.is_kw("case", "casez", "casex"):
            return self._parse_case()
        if tok.is_kw("for"):
            return self._parse_for()
        if tok.is_kw("while"):
            return self._parse_while()
        if tok.is_kw("repeat"):
            return self._parse_repeat()
        if tok.is_kw("forever"):
            self._next()
            return ast.Forever(body=self.parse_statement(), line=tok.line)
        if tok.is_kw("wait"):
            self._next()
            self._expect_op("(")
            cond = self.parse_expression()
            self._expect_op(")")
            inner = (
                ast.NullStmt(line=tok.line)
                if self._accept_op(";")
                else self.parse_statement()
            )
            return ast.Wait(cond=cond, stmt=inner, line=tok.line)
        if tok.is_kw("disable"):
            self._next()
            name = self._expect_ident().text
            self._expect_op(";")
            return ast.Disable(name=name, line=tok.line)
        if tok.is_op("#"):
            self._next()
            amount = self._parse_delay_value()
            if self._accept_op(";"):
                return ast.Delay(amount=amount, stmt=None, line=tok.line)
            return ast.Delay(
                amount=amount, stmt=self.parse_statement(), line=tok.line
            )
        if tok.is_op("@"):
            self._next()
            sens = self._parse_sensitivity()
            if self._accept_op(";"):
                return ast.EventControl(sensitivity=sens, stmt=None, line=tok.line)
            return ast.EventControl(
                sensitivity=sens, stmt=self.parse_statement(), line=tok.line
            )
        if tok.kind is TokenKind.SYSTEM_IDENT:
            return self._parse_system_task()
        if tok.is_op(";"):
            self._next()
            return ast.NullStmt(line=tok.line)
        return self._parse_assignment_or_call()

    def _parse_block(self) -> ast.Block:
        start = self._expect_kw("begin")
        block = ast.Block(line=start.line)
        if self._accept_op(":"):
            block.name = self._expect_ident().text
        while self._tok.is_kw("reg", "integer", "real", "time"):
            kind = self._next().text
            signed = bool(self._accept_kw("signed"))
            rng = self._parse_optional_range()
            while True:
                name = self._expect_ident().text
                dims: List[ast.Range] = []
                while self._tok.is_op("["):
                    dims.append(self._parse_range())
                block.decls.append(
                    ast.Decl(kind=kind, name=name, range=rng,
                             array_dims=dims, signed=signed)
                )
                if not self._accept_op(","):
                    break
            self._expect_op(";")
        while not self._tok.is_kw("end"):
            if self._tok.kind is TokenKind.EOF:
                raise self._error("unexpected EOF inside begin/end block")
            block.stmts.append(self.parse_statement())
        self._next()
        return block

    def _parse_if(self) -> ast.If:
        start = self._expect_kw("if")
        self._expect_op("(")
        cond = self.parse_expression()
        self._expect_op(")")
        then_stmt = self.parse_statement()
        else_stmt = None
        if self._accept_kw("else"):
            else_stmt = self.parse_statement()
        return ast.If(
            cond=cond, then_stmt=then_stmt, else_stmt=else_stmt,
            line=start.line,
        )

    def _parse_case(self) -> ast.Case:
        start = self._next()
        kind = start.text
        self._expect_op("(")
        subject = self.parse_expression()
        self._expect_op(")")
        case = ast.Case(kind=kind, subject=subject, line=start.line)
        while not self._tok.is_kw("endcase"):
            if self._tok.kind is TokenKind.EOF:
                raise self._error("unexpected EOF inside case")
            item = ast.CaseItem(line=self._tok.line)
            if self._accept_kw("default"):
                self._accept_op(":")
            else:
                while True:
                    item.exprs.append(self.parse_expression())
                    if not self._accept_op(","):
                        break
                self._expect_op(":")
            item.body = self.parse_statement()
            case.items.append(item)
        self._next()
        return case

    def _parse_for(self) -> ast.For:
        start = self._expect_kw("for")
        self._expect_op("(")
        init = self._parse_simple_assign()
        self._expect_op(";")
        cond = self.parse_expression()
        self._expect_op(";")
        step = self._parse_simple_assign()
        self._expect_op(")")
        body = self.parse_statement()
        return ast.For(init=init, cond=cond, step=step, body=body,
                       line=start.line)

    def _parse_simple_assign(self) -> ast.Assign:
        """An assignment without trailing semicolon (for-loop slots)."""
        target = self._parse_lvalue()
        blocking = True
        if self._accept_op("="):
            pass
        elif self._accept_op("<="):
            blocking = False
        else:
            raise self._error("expected assignment in for-loop header")
        value = self.parse_expression()
        return ast.Assign(target=target, value=value, blocking=blocking,
                          line=target.line)

    def _parse_while(self) -> ast.While:
        start = self._expect_kw("while")
        self._expect_op("(")
        cond = self.parse_expression()
        self._expect_op(")")
        body = self.parse_statement()
        return ast.While(cond=cond, body=body, line=start.line)

    def _parse_repeat(self) -> ast.Repeat:
        start = self._expect_kw("repeat")
        self._expect_op("(")
        count = self.parse_expression()
        self._expect_op(")")
        body = self.parse_statement()
        return ast.Repeat(count=count, body=body, line=start.line)

    def _parse_system_task(self) -> ast.SystemTaskCall:
        tok = self._next()
        args: List[ast.Expr] = []
        if self._accept_op("("):
            while not self._tok.is_op(")"):
                args.append(self.parse_expression())
                if not self._accept_op(","):
                    break
            self._expect_op(")")
        self._expect_op(";")
        return ast.SystemTaskCall(name=tok.text, args=args, line=tok.line)

    def _parse_lvalue(self) -> ast.Expr:
        """Parse an assignment target: identifier (with selects),
        hierarchical name, or a concatenation of lvalues.

        Targets must not be parsed with the general expression grammar
        because ``a <= b`` would greedily lex ``<=`` as less-or-equal.
        """
        tok = self._tok
        if tok.is_op("{"):
            start = self._next()
            parts = [self._parse_lvalue()]
            while self._accept_op(","):
                parts.append(self._parse_lvalue())
            self._expect_op("}")
            return ast.Concat(parts=parts, line=start.line)
        if tok.kind is not TokenKind.IDENT:
            raise self._error(
                f"expected assignment target, found {tok.text!r}"
            )
        self._next()
        expr: ast.Expr
        if self._tok.is_op(".") and self._peek(1).kind is TokenKind.IDENT:
            parts_h = [tok.text]
            while self._tok.is_op(".") and self._peek(1).kind is TokenKind.IDENT:
                self._next()
                parts_h.append(self._expect_ident().text)
            expr = ast.HierarchicalId(parts=tuple(parts_h), line=tok.line)
        else:
            expr = ast.Identifier(name=tok.text, line=tok.line)
        return self._parse_postfix_selects(expr)

    def _parse_assignment_or_call(self) -> ast.Stmt:
        line = self._tok.line
        tok = self._tok
        if tok.kind is TokenKind.IDENT and (
            self._peek(1).is_op("(") or self._peek(1).is_op(";")
        ):
            # A bare task call: "my_task;" or "my_task(a, b);"
            name = self._next().text
            args: List[ast.Expr] = []
            if self._accept_op("("):
                while not self._tok.is_op(")"):
                    args.append(self.parse_expression())
                    if not self._accept_op(","):
                        break
                self._expect_op(")")
            self._expect_op(";")
            return ast.TaskCall(name=name, args=args, line=line)
        target = self._parse_lvalue()
        blocking = True
        if self._accept_op("="):
            pass
        elif self._accept_op("<="):
            blocking = False
        else:
            raise self._error(
                f"expected '=' or '<=', found {self._tok.text!r}"
            )
        delay = None
        if self._accept_op("#"):
            delay = self._parse_delay_value()
        if self._tok.is_op("@"):
            self._next()
            self._parse_sensitivity()  # intra-assignment event: ignored
        value = self.parse_expression()
        self._expect_op(";")
        return ast.Assign(
            target=target, value=value, blocking=blocking, delay=delay,
            line=line,
        )

    def _parse_delay_value(self) -> ast.Expr:
        """Parse the expression after ``#`` (number, ident, or parens)."""
        if self._accept_op("("):
            expr = self.parse_expression()
            self._expect_op(")")
            return expr
        return self.parse_primary()

    # -- expressions -----------------------------------------------------------

    #: Binary operator precedence levels, weakest first.
    _BINARY_LEVELS: List[Tuple[str, ...]] = [
        ("||",),
        ("&&",),
        ("|",),
        ("^", "~^", "^~"),
        ("&",),
        ("==", "!=", "===", "!=="),
        ("<", "<=", ">", ">="),
        ("<<", ">>", "<<<", ">>>"),
        ("+", "-"),
        ("*", "/", "%"),
        ("**",),
    ]

    #: Binary operator -> its index in ``_BINARY_LEVELS``.
    _BINARY_LEVEL_OF = {op: level for level, ops in enumerate(_BINARY_LEVELS)
                        for op in ops}

    _UNARY_OPS = ("+", "-", "!", "~", "&", "|", "^", "~&", "~|", "~^", "^~")

    def parse_expression(self) -> ast.Expr:
        """Parse a full expression including ``?:``."""
        cond = self._parse_binary(0)
        if self._accept_op("?"):
            if_true = self.parse_expression()
            self._expect_op(":")
            if_false = self.parse_expression()
            return ast.Ternary(
                cond=cond, if_true=if_true, if_false=if_false, line=cond.line
            )
        return cond

    def _parse_binary(self, min_level: int) -> ast.Expr:
        """Precedence climbing: operators binding at ``min_level`` or
        tighter, every level left-associative."""
        left = self._parse_unary()
        while True:
            tok = self._tok
            # "<=" in expression position is less-or-equal; assignment
            # contexts consume it before calling parse_expression.
            level = (self._BINARY_LEVEL_OF.get(tok.text, -1)
                     if tok.kind is TokenKind.OPERATOR else -1)
            if level < min_level:
                return left
            self._next()
            left = ast.Binary(op=tok.text, left=left,
                              right=self._parse_binary(level + 1),
                              line=left.line)

    def _parse_unary(self) -> ast.Expr:
        tok = self._tok
        if tok.kind is TokenKind.OPERATOR and tok.text in self._UNARY_OPS:
            self._next()
            operand = self._parse_unary()
            return ast.Unary(op=tok.text, operand=operand, line=tok.line)
        return self.parse_primary()

    def parse_primary(self) -> ast.Expr:
        """Parse a primary expression with postfix selects."""
        tok = self._tok
        expr: ast.Expr
        if tok.kind is TokenKind.NUMBER:
            self._next()
            if "." in tok.text or (
                "e" in tok.text.lower() and "'" not in tok.text
            ):
                try:
                    expr = ast.RealNumber(
                        line=tok.line,
                        value=float(tok.text.replace("_", "")),
                    )
                except ValueError:
                    expr = parse_number_literal(tok.text, tok.line, tok.col)
            else:
                expr = parse_number_literal(tok.text, tok.line, tok.col)
        elif tok.kind is TokenKind.STRING:
            self._next()
            expr = ast.StringLiteral(line=tok.line, value=tok.text)
        elif tok.kind is TokenKind.SYSTEM_IDENT:
            self._next()
            args: List[ast.Expr] = []
            if self._accept_op("("):
                while not self._tok.is_op(")"):
                    args.append(self.parse_expression())
                    if not self._accept_op(","):
                        break
                self._expect_op(")")
            expr = ast.SystemCall(name=tok.text, args=args, line=tok.line)
        elif tok.kind is TokenKind.IDENT:
            expr = self._parse_identifier_expr()
        elif tok.is_op("("):
            self._next()
            expr = self.parse_expression()
            self._expect_op(")")
        elif tok.is_op("{"):
            expr = self._parse_concat()
        else:
            raise self._error(f"unexpected token {tok.text!r} in expression")
        return self._parse_postfix_selects(expr)

    def _parse_identifier_expr(self) -> ast.Expr:
        tok = self._next()
        # Hierarchical name: a.b.c (selects between parts unsupported).
        if self._tok.is_op(".") and self._peek(1).kind is TokenKind.IDENT:
            parts = [tok.text]
            while self._tok.is_op(".") and self._peek(1).kind is TokenKind.IDENT:
                self._next()
                parts.append(self._expect_ident().text)
            return ast.HierarchicalId(parts=tuple(parts), line=tok.line)
        if self._tok.is_op("("):
            self._next()
            args: List[ast.Expr] = []
            while not self._tok.is_op(")"):
                args.append(self.parse_expression())
                if not self._accept_op(","):
                    break
            self._expect_op(")")
            return ast.FunctionCall(name=tok.text, args=args, line=tok.line)
        return ast.Identifier(name=tok.text, line=tok.line)

    def _parse_concat(self) -> ast.Expr:
        start = self._expect_op("{")
        first = self.parse_expression()
        if self._tok.is_op("{"):
            # Replication {N{expr}}.
            self._next()
            value = self.parse_expression()
            parts = [value]
            while self._accept_op(","):
                parts.append(self.parse_expression())
            self._expect_op("}")
            self._expect_op("}")
            inner: ast.Expr
            if len(parts) == 1:
                inner = parts[0]
            else:
                inner = ast.Concat(parts=parts, line=start.line)
            return ast.Replicate(count=first, value=inner, line=start.line)
        parts = [first]
        while self._accept_op(","):
            parts.append(self.parse_expression())
        self._expect_op("}")
        return ast.Concat(parts=parts, line=start.line)

    def _parse_postfix_selects(self, expr: ast.Expr) -> ast.Expr:
        while self._tok.is_op("["):
            self._next()
            left = self.parse_expression()
            if self._accept_op(":"):
                right = self.parse_expression()
                self._expect_op("]")
                expr = ast.Select(base=expr, kind="part", left=left,
                                  right=right, line=expr.line)
            elif self._accept_op("+:"):
                right = self.parse_expression()
                self._expect_op("]")
                expr = ast.Select(base=expr, kind="plus", left=left,
                                  right=right, line=expr.line)
            elif self._accept_op("-:"):
                right = self.parse_expression()
                self._expect_op("]")
                expr = ast.Select(base=expr, kind="minus", left=left,
                                  right=right, line=expr.line)
            else:
                self._expect_op("]")
                expr = ast.Select(base=expr, kind="bit", left=left,
                                  line=expr.line)
        return expr

    # -- ranges ------------------------------------------------------------

    def _parse_optional_range(self) -> Optional[ast.Range]:
        if self._tok.is_op("["):
            return self._parse_range()
        return None

    def _parse_range(self) -> ast.Range:
        self._expect_op("[")
        msb = self.parse_expression()
        self._expect_op(":")
        lsb = self.parse_expression()
        self._expect_op("]")
        return ast.Range(msb=msb, lsb=lsb)


#: The :class:`~repro.verilog.frontend.FrontEndMemo` of the scope open
#: in this context, or None outside any scope.
ACTIVE_MEMO: ContextVar = ContextVar("repro.verilog.front_end_memo",
                                     default=None)


def parse(source: str) -> ast.SourceFile:
    """Parse Verilog source text into a :class:`ast.SourceFile`.

    Inside a front-end memo scope (:mod:`repro.verilog.frontend`) each
    distinct text is parsed once and its tree shared, read-only, with
    every later caller; outside one, every call parses.
    """
    memo = ACTIVE_MEMO.get()
    if memo is not None:
        return memo.parse(source)
    return Parser(source).parse_source()


def parse_module(source: str) -> ast.Module:
    """Parse source expected to contain exactly one module."""
    src = parse(source)
    if len(src.modules) != 1:
        raise ParseError(
            f"expected exactly one module, found {len(src.modules)}", 1, 1
        )
    return src.modules[0]
