"""Symbol tables for the IR: scalar vs array, element type, dimensions."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:
    from repro.ir.nodes import IExpr


class ElemType(Enum):
    INT = "int"
    FLOAT = "float"

    @staticmethod
    def of_c_type(type_name: str) -> "ElemType":
        floaty = {"float", "double"}
        words = set(type_name.split())
        return ElemType.FLOAT if words & floaty else ElemType.INT


@dataclass(frozen=True, slots=True)
class VarInfo:
    name: str
    elem_type: ElemType
    #: one lowered size per dimension, ``None`` when unsized (``a[]``);
    #: ``()`` for a scalar
    dims: tuple[IExpr | None, ...] = ()
    is_param: bool = False
    is_global: bool = False

    @property
    def is_array(self) -> bool:
        return bool(self.dims)

    @property
    def rank(self) -> int:
        return len(self.dims)


@dataclass(slots=True)
class SymbolTable:
    """Flat per-function (or global) table.  The mini-C subset has no
    shadowing inside a function body (block-scoped decls are hoisted)."""

    vars: dict[str, VarInfo] = field(default_factory=dict)
    parent: "SymbolTable | None" = None

    def declare(self, info: VarInfo) -> None:
        self.vars[info.name] = info

    def lookup(self, name: str) -> VarInfo | None:
        if name in self.vars:
            return self.vars[name]
        if self.parent is not None:
            return self.parent.lookup(name)
        return None

    def is_array(self, name: str) -> bool:
        info = self.lookup(name)
        return info is not None and info.is_array

    def is_int_scalar(self, name: str) -> bool:
        info = self.lookup(name)
        return info is not None and not info.is_array and info.elem_type is ElemType.INT

    def arrays(self) -> Iterator[VarInfo]:
        seen: set[str] = set()
        tab: SymbolTable | None = self
        while tab is not None:
            for info in tab.vars.values():
                if info.is_array and info.name not in seen:
                    seen.add(info.name)
                    yield info
            tab = tab.parent

    def scalars(self) -> Iterator[VarInfo]:
        seen: set[str] = set()
        tab: SymbolTable | None = self
        while tab is not None:
            for info in tab.vars.values():
                if not info.is_array and info.name not in seen:
                    seen.add(info.name)
                    yield info
            tab = tab.parent
