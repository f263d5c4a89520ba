#!/usr/bin/env python3
"""ct_dataflow: binary-level secret-taint dataflow verifier for the oblivious kernels.

Snoopy's security argument (paper Appendix B) requires the *compiled* oblivious code
to be branch- and index-free on secrets. The source linter (ct_lint.py) cannot see
what the optimizer does, and the no-branch smoke test (check_nobranch.py) only audits
tiny hand-unrolled wrappers. This tool closes the gap: it compiles the audit TU
(tests/ct_dataflow_fixture.cc, which #includes the real implementation TUs so the
audited machine code is the optimizer's output for the actual tree), disassembles the
object with objdump, reconstructs a per-symbol CFG, and runs a forward taint dataflow
from the annotated secret arguments of each `// ctdf-symbol:` root.

Taint model
  * Registers hold abstract values: a taint bit plus, for pointers, the memory
    region they address. Secret *pointers* do not exist in the discipline -- a
    `ptr:` seed means "public pointer to secret bytes".
  * Memory is a table of regions (per secret/public argument, per allocation call
    site, per stack frame, the globals). Loads from a secret region yield tainted
    scalars; stores of tainted values taint the region. The analyzed function's own
    stack frame is tracked flow-sensitively slot-by-slot so spills/reloads keep
    their taint (and nothing else).
  * Flags carry the taint of the last flag-writing instruction. Vector registers
    (xmm/ymm/zmm) and AVX-512 k-mask registers carry taint bits; the value barriers
    (ValueBarrier / KernelVecBarrier) are empty asm and therefore invisible at this
    level -- masks stay tainted through them. Barriers and mask algebra are *taint
    algebra*, never taint kills: `cmov`/`set`/mask blends on tainted flags produce
    tainted results but are not violations, because their timing and address trace
    are data-independent.
  * Same-object calls are followed (context-keyed summaries, recursion cut at the
    in-progress set); external calls are classified by the manifest allowlists.

Rules
  B01 secret-branch    conditional branch (jcc/loop/jrcxz, or indirect jump) whose
                       flags/target derive from tainted data
  B02 secret-address   memory operand whose base or index register is tainted, a
                       gather/scatter with a tainted index, or an AVX-512 masked
                       load/store under a tainted k-mask (the touched byte set
                       would depend on a secret)
  B03 variable-latency div/idiv/sqrt family with a tainted input (x86 divide and
                       square-root latency depends on operand magnitude)
  B04 tainted-escape   tainted value (or pointer to secret bytes, for unknown
                       callees) passed to a call outside the manifest allowlists,
                       or an indirect call through a tainted pointer
  M01 manifest         a `ctdf-symbol:` marker names a symbol missing from the
                       object (the audit would silently cover nothing)

A root listed in the manifest's `required_roots` but carrying no marker in the audit
unit fails the run before anything is compiled.

Exit status: 0 when every audited symbol is clean, 1 otherwise. `--self-test` runs
the planted-violation corpus (tools/ct_dataflow_selftest/): every planted B01-B04
must fire and the clean file must pass. `--format=json` emits machine-readable
findings for CI annotation.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field

import ct_disasm

# ------------------------------------------------------------------ registers

GPR_CANON = {}
for _canon, _forms in {
    "rax": ("rax", "eax", "ax", "al", "ah"),
    "rbx": ("rbx", "ebx", "bx", "bl", "bh"),
    "rcx": ("rcx", "ecx", "cx", "cl", "ch"),
    "rdx": ("rdx", "edx", "dx", "dl", "dh"),
    "rsi": ("rsi", "esi", "si", "sil"),
    "rdi": ("rdi", "edi", "di", "dil"),
    "rbp": ("rbp", "ebp", "bp", "bpl"),
    "rsp": ("rsp", "esp", "sp", "spl"),
    "r8": ("r8", "r8d", "r8w", "r8b"),
    "r9": ("r9", "r9d", "r9w", "r9b"),
    "r10": ("r10", "r10d", "r10w", "r10b"),
    "r11": ("r11", "r11d", "r11w", "r11b"),
    "r12": ("r12", "r12d", "r12w", "r12b"),
    "r13": ("r13", "r13d", "r13w", "r13b"),
    "r14": ("r14", "r14d", "r14w", "r14b"),
    "r15": ("r15", "r15d", "r15w", "r15b"),
    "rip": ("rip",),
}.items():
    for _f in _forms:
        GPR_CANON[_f] = _canon

VEC_RE = re.compile(r"^(?:xmm|ymm|zmm)(\d+)$")
KMASK_RE = re.compile(r"^k([0-7])$")

ARG_REGS = ("rdi", "rsi", "rdx", "rcx", "r8", "r9")
CALLER_SAVED = ("rax", "rcx", "rdx", "rsi", "rdi", "r8", "r9", "r10", "r11")

# ------------------------------------------------------------------ abstract values

@dataclass(frozen=True)
class Val:
    """Abstract value: taint bit + optional pointed-to region (+ const offset).
    `region` is a region name, a frozenset of names (the value may point into any
    of them -- produced by joins and pointer arithmetic), or None (no idea)."""
    taint: bool = False
    region: object = None  # str | frozenset[str] | None
    off: int | None = None

    def with_off(self, off):
        return Val(self.taint, self.region, off)


PUBLIC = Val()
SECRET = Val(taint=True)
# Pointer values statically known to be zero get the join-transparent "null"
# region: compilers build first-iteration states where a growth cursor is still
# nullptr, and paths that would dereference it crash at runtime rather than leak.
# Stores through null are dropped; loads from it are public; a join of null with
# a real region keeps the real region.
NULL_REGION = "null"
NULL_PTR = Val(False, NULL_REGION, 0)

# A pointer set larger than this degrades to None (unknown) -- keeps joins and
# weak updates bounded on pathological CFGs.
MAX_REGION_SET = 6


def region_set(r) -> frozenset:
    """The concrete regions a value may point into (empty for scalar/unknown/null)."""
    if r is None or r == NULL_REGION:
        return frozenset()
    if isinstance(r, frozenset):
        return r
    return frozenset((r,))


def make_region(rs):
    rs = frozenset(rs) - {NULL_REGION}
    if not rs:
        return None
    if len(rs) == 1:
        return next(iter(rs))
    if len(rs) > MAX_REGION_SET:
        return None
    return rs


def region_has(r, name) -> bool:
    return r == name or name in region_set(r)


def join_val(a: Val, b: Val) -> Val:
    if a == b:
        return a
    # A region survives the join when the other side has none (or is the known-null
    # region): a "null or points into R" pointer still points into R whenever it is
    # dereferenced. Two different real regions union into a set -- a vector's grow
    # loop legitimately carries cursors into different allocations, and collapsing
    # them to "unknown" would route stores into the wild blob. (B02 keys on taint,
    # not region, so this only improves value precision.)
    if a.region == b.region:
        region = a.region
    elif a.region is None or a.region == NULL_REGION:
        region = b.region
    elif b.region is None or b.region == NULL_REGION:
        region = a.region
    else:
        region = make_region(region_set(a.region) | region_set(b.region))
    off = a.off if (region is not None and a.off == b.off) else None
    return Val(a.taint or b.taint, region, off)


@dataclass
class Region:
    secret_data: bool = False  # seeded: every load from here is secret
    summary_taint: bool = False  # some store of a tainted value landed here
    fields: dict = field(default_factory=dict)  # const offset -> Val

    def load(self, off: int | None) -> Val:
        if self.secret_data:
            return SECRET
        if off is not None and off in self.fields:
            v = self.fields[off]
            return Val(v.taint or self.summary_taint, v.region, v.off)
        return Val(taint=self.summary_taint)

    def store(self, off: int | None, v: Val):
        if off is None:
            if v.taint:
                self.summary_taint = True
            return
        old = self.fields.get(off)
        if old is None:
            self.fields[off] = v
        else:
            # Monotone within a fixpoint: taint only rises, pointer info degrades.
            self.fields[off] = join_val(old, v) if old != v else old
            if v.taint or old.taint:
                self.fields[off] = Val(True, self.fields[off].region, self.fields[off].off)


@dataclass
class State:
    regs: dict = field(default_factory=dict)  # canon gpr -> Val
    vec: dict = field(default_factory=dict)  # v0..v31 -> bool
    kmask: dict = field(default_factory=dict)  # k0..k7 -> bool
    flags: bool = False
    stack: dict = field(default_factory=dict)  # frame offset -> Val
    sp_off: int | None = 0  # rsp = frame_base + sp_off (None = lost track)
    stack_unknown_taint: bool = False  # stores at untracked stack offsets
    vecz: set = field(default_factory=set)  # v<n> known all-zero (pxor idiom)

    def copy(self) -> "State":
        s = State(dict(self.regs), dict(self.vec), dict(self.kmask), self.flags,
                  dict(self.stack), self.sp_off, self.stack_unknown_taint,
                  set(self.vecz))
        return s

    def key(self):
        return (tuple(sorted(self.regs.items(), key=lambda kv: kv[0])),
                tuple(sorted(self.vec.items())), tuple(sorted(self.kmask.items())),
                self.flags, tuple(sorted(self.stack.items())), self.sp_off,
                self.stack_unknown_taint, tuple(sorted(self.vecz)))


def join_state(a: State, b: State) -> State:
    out = State()
    for r in set(a.regs) | set(b.regs):
        out.regs[r] = join_val(a.regs.get(r, PUBLIC), b.regs.get(r, PUBLIC))
    for r in set(a.vec) | set(b.vec):
        out.vec[r] = a.vec.get(r, False) or b.vec.get(r, False)
    for r in set(a.kmask) | set(b.kmask):
        out.kmask[r] = a.kmask.get(r, False) or b.kmask.get(r, False)
    out.flags = a.flags or b.flags
    for off in set(a.stack) | set(b.stack):
        out.stack[off] = join_val(a.stack.get(off, PUBLIC), b.stack.get(off, PUBLIC))
    out.sp_off = a.sp_off if a.sp_off == b.sp_off else None
    out.stack_unknown_taint = a.stack_unknown_taint or b.stack_unknown_taint
    out.vecz = a.vecz & b.vecz
    return out


def state_leq(a: State, b: State) -> bool:
    """True if a adds nothing over b (join(a, b) == b)."""
    return join_state(a, b).key() == b.key()


# ------------------------------------------------------------------ operand parsing

MEM_RE = re.compile(
    r"^(?P<seg>%[a-z]s:)?(?P<disp>-?0x[0-9a-f]+|-?\d+)?"
    r"\((?P<base>%[a-z0-9]+)?(?:,(?P<index>%[a-z0-9]+))?(?:,(?P<scale>[1248]))?\)"
    r"(?P<mask>\{%k[0-7]\})?(?:\{z\})?$")
REG_RE = re.compile(r"^(?P<reg>%[a-z0-9]+)(?P<mask>\{%k[0-7]\})?(?:\{z\})?$")
IMM_RE = re.compile(r"^\$")


@dataclass
class Mem:
    base: str | None
    index: str | None
    scale: int
    disp: int
    kmask: str | None


def parse_operand(op: str):
    """-> ('imm', None) | ('reg', name, kmask) | ('mem', Mem) | ('target', text) | ('other', op)"""
    op = op.strip()
    if not op:
        return ("other", op)
    if IMM_RE.match(op):
        try:
            return ("imm", int(op[1:], 0))
        except ValueError:
            return ("imm", None)
    if op.startswith("*"):
        inner = parse_operand(op[1:])
        return ("ind",) + inner[1:] if inner[0] in ("reg", "mem") else ("other", op)
    m = REG_RE.match(op)
    if m:
        km = m.group("mask")
        return ("reg", m.group("reg")[1:], km[2:-1] if km else None)
    m = MEM_RE.match(op)
    if m:
        disp = int(m.group("disp"), 0) if m.group("disp") else 0
        km = m.group("mask")
        return ("mem", Mem(
            m.group("base")[1:] if m.group("base") else None,
            m.group("index")[1:] if m.group("index") else None,
            int(m.group("scale") or 1), disp, km[2:-1] if km else None))
    if ct_disasm.TARGET_RE.match(op):
        return ("target", op)
    return ("other", op)


# ------------------------------------------------------------------ mnemonic classes

COND_JUMPS = ct_disasm.X86_COND_RE
# Allocation entry points: return a fresh public region (operator new, malloc...).
ALLOC_RE = re.compile(r"^(_Zn[wa]m|malloc$|calloc$|realloc$|aligned_alloc$)")
# Variable-latency families (B03). Multiplies are constant-time on every x86-64 this
# project targets; divides and square roots are not.
VARLAT_RE = re.compile(r"^(v?(?:div|sqrt|rsqrt14|rcp14)[a-z0-9]*|f?i?div[a-z]*|fsqrt)$")
GATHER_SCATTER_RE = re.compile(r"^v?p?(?:gather|scatter)")
SETCC_RE = re.compile(r"^set[a-z]+$")
CMOV_RE = re.compile(r"^cmov[a-z]+$")
# Vector moves (mem<->vec or vec<->vec). movq/movd are ambiguous with GPR moves and
# resolved by operand inspection.
VEC_MNEM_RE = re.compile(r"^(v|p(?!ush|op)|mov(a|u|dq|nt|s[sdh]|hp|lp)|"
                         r"uc?omis|andp|andnp|orp|xorp|shufp|unpck|insertp|extractp|"
                         r"cvt|blend|kmov|kand|kor|kxor|knot|ktest|broadcast|lddqu)")
# Full-width vector moves: the source value (including known-zero-ness) passes
# through unchanged and a memory operand covers the whole register, not one
# 8-byte granule. GCC zeroes pointer triples in aggregates with pxor + movups,
# so a 16-byte store must land null in BOTH granules or later pointer reloads
# see stale values.
VEC_FULL_MOVE_RE = re.compile(
    r"^v?(mov(aps|apd|ups|upd|dqa(32|64)?|dqu(8|16|32|64)?|ntdqa?|ntps|ntpd)|lddqu)$")


def vec_access_width(ops) -> int:
    for p in ops:
        if p[0] == "reg" and VEC_RE.match(p[1]):
            return {"x": 16, "y": 32, "z": 64}.get(p[1][0], 16)
    return 8
# GPR moves incl. zero/sign extension.
GPR_MOV_RE = re.compile(r"^(mov(abs)?[qlwb]?|movz[bw][lwq]|movs[bwl][lwq]|movslq)$")
# Flag-writing GPR arithmetic whose result taint = OR of operand taints.
ARITH_RE = re.compile(r"^(add|sub|adc|sbb|and|or|xor|neg|not|inc|dec|imul|mul|"
                      r"sh[lr]|sa[lr]|ro[lr]|rc[lr]|bt[srcalifc]*|bs[rf]|popcnt|"
                      r"tzcnt|lzcnt|shld|shrd|xadd|andn)[qlwbd]?$")
CMP_RE = re.compile(r"^(cmp|test)[qlwb]?$")
# Callees that never return: analysis must not fall through past a call to them.
NORETURN_RE = re.compile(
    r"^(abort|exit|_exit|__assert_fail|__stack_chk_fail|__cxa_throw|"
    r"__cxa_rethrow|__cxa_bad_cast|__cxa_bad_typeid|_Unwind_Resume|"
    r"_ZSt9terminatev|_ZSt[0-9]+__throw_.*)$")

_ARITH_BASES = frozenset({
    "add", "sub", "adc", "sbb", "and", "or", "xor", "neg", "not", "inc", "dec",
    "imul", "mul", "shl", "shr", "sal", "sar", "rol", "ror", "rcl", "rcr",
    "bt", "bts", "btr", "btc", "bsr", "bsf", "popcnt", "tzcnt", "lzcnt",
    "shld", "shrd", "xadd", "andn",
})


def arith_base(mn: str) -> str:
    """Strip at most one size-suffix letter, only when that yields a real opcode
    (plain rstrip would eat opcode letters: sub -> su, sbb -> s)."""
    if mn in _ARITH_BASES:
        return mn
    if mn[-1] in "qlwbd" and mn[:-1] in _ARITH_BASES:
        return mn[:-1]
    return mn
NOP_RE = re.compile(r"^(nop[a-z]*|endbr64|endbr32|ud2|pause|lfence|mfence|sfence|"
                    r"cld|std|leave|ret[qf]?|hlt|int3)$")
SIGN_EXTEND = {"cqo", "cqto", "cdq", "cltd", "cdqe", "cltq", "cbtw", "cwtl", "cwde", "cbw"}
STRING_OP_RE = re.compile(r"^(movs|stos|lods|scas|cmps)[bwlq]$")


# ------------------------------------------------------------------ findings

@dataclass(frozen=True)
class Finding:
    rule: str
    symbol: str  # audit root
    site: str  # symbol the instruction lives in (after call-following)
    address: int
    mnemonic: str
    detail: str

    def text(self) -> str:
        where = self.site if self.site == self.symbol else f"{self.symbol} -> {self.site}"
        return (f"{self.rule} {where}+0x{self.address:x}: {self.mnemonic}: {self.detail}")

    def record(self) -> dict:
        return {"rule": self.rule, "symbol": self.symbol, "site": self.site,
                "address": f"0x{self.address:x}", "mnemonic": self.mnemonic,
                "detail": self.detail}


# ------------------------------------------------------------------ marker parsing

MARKER_RE = re.compile(
    r"//\s*ctdf-symbol:\s*(?P<name>\w+)"
    r"(?:\s+secret=(?P<secret>[a-z0-9:,]+))?"
    r"(?:\s+backend=(?P<backend>\w+))?"
    r"(?:\s+expect=(?P<expect>[A-Z0-9,]+|clean))?")


@dataclass
class AuditSymbol:
    name: str
    seeds: list  # (kind, reg) with kind in {val, ptr}
    backend: str = "generic"
    expect: set = field(default_factory=set)  # self-test corpus only


def parse_markers(text: str) -> list:
    out = []
    for m in MARKER_RE.finditer(text):
        seeds = []
        for part in (m.group("secret") or "").split(","):
            part = part.strip()
            if not part:
                continue
            kind, _, reg = part.partition(":")
            if kind not in ("val", "ptr") or reg not in ARG_REGS:
                raise SystemExit(f"bad ctdf-symbol seed '{part}' for {m.group('name')}")
            seeds.append((kind, reg))
        expect = set()
        if m.group("expect") and m.group("expect") != "clean":
            expect = set(m.group("expect").split(","))
        out.append(AuditSymbol(m.group("name"), seeds,
                               m.group("backend") or "generic", expect))
    return out


# ------------------------------------------------------------------ the analyzer

MAX_CALL_DEPTH = 24


class Analyzer:
    def __init__(self, dis: ct_disasm.Disassembly, manifest: dict, verbose=False):
        self.dis = dis
        self.verbose = verbose
        self.regions: dict[str, Region] = {"globals": Region(), "wild": Region()}
        self.findings: list[Finding] = []
        self._finding_keys = set()
        self.summaries = {}  # (symbol, sig) -> ret taint (bool)
        self.in_progress = set()
        self.allow_secret = set(manifest.get("call_allow_secret", ()))
        self.allow_public = set(manifest.get("call_allow_public", ()))
        self.allow_public_pat = [re.compile(p)
                                 for p in manifest.get("call_allow_public_patterns", ())]
        self.notes = []
        self.root = ""
        self._frame_counter = 0

    # -------------------------------------------------------------- helpers

    def note(self, msg):
        if self.verbose:
            self.notes.append(msg)

    def flag(self, rule, site, insn, detail):
        key = (rule, site, insn.address)
        if key in self._finding_keys:
            return
        self._finding_keys.add(key)
        self.findings.append(Finding(rule, self.root, site, insn.address,
                                     insn.raw.split("\t")[-1].strip() or insn.mnemonic,
                                     detail))

    def region(self, name) -> Region:
        if name not in self.regions:
            self.regions[name] = Region()
        return self.regions[name]

    def is_public_allowed(self, callee: str) -> bool:
        if callee in self.allow_public:
            return True
        return any(p.search(callee) for p in self.allow_public_pat)

    # -------------------------------------------------------------- memory access

    def resolve_addr(self, mem: Mem, st: State, frame: str, insn=None):
        """-> ('stack', off|None) | ('region', name, off|None) | ('wild', None)
        plus the taint of the address computation (base/index registers)."""
        addr_taint = False
        base_v = PUBLIC
        if mem.base == "rip":
            # One region per global symbol (named by the relocation), so taint in
            # one static cannot bleed into unrelated ones.
            if insn is not None and insn.reloc:
                return ("region", f"global:{insn.reloc}", 0), False
            return ("region", "globals", None), False
        if mem.base:
            base_v = st.regs.get(GPR_CANON.get(mem.base, mem.base), PUBLIC)
            addr_taint |= base_v.taint
        if mem.index:
            iv = st.regs.get(GPR_CANON.get(mem.index, mem.index), PUBLIC)
            addr_taint |= iv.taint
        if mem.base and GPR_CANON.get(mem.base) == "rsp":
            off = (st.sp_off + mem.disp) if (st.sp_off is not None and not mem.index) else None
            return ("stack", off), addr_taint
        if base_v.region == frame:
            off = (base_v.off + mem.disp) if (base_v.off is not None and not mem.index) else None
            return ("stack", off), addr_taint
        rs = region_set(base_v.region)
        if len(rs) > 1:
            off = None
            if base_v.off is not None and not mem.index:
                off = base_v.off + mem.disp
            return ("multi", rs, off), addr_taint
        if base_v.region is not None:
            off = None
            if base_v.off is not None and not mem.index:
                off = base_v.off + mem.disp
            return ("region", base_v.region, off), addr_taint
        if mem.base is None and mem.index is None:
            return ("region", "globals", None), addr_taint
        return ("wild", None), addr_taint

    def mem_load(self, where, st: State, frame=None) -> Val:
        kind = where[0]
        if kind == "stack":
            off = where[1]
            if off is not None:
                if off in st.stack:
                    v = st.stack[off]
                    return Val(v.taint, v.region, v.off)
                # Slot the caller never wrote: a followed callee may have (frame
                # escaped through a pointer argument) -- consult the mirror region.
                if frame in self.regions:
                    return self.regions[frame].load(off)
                return PUBLIC
            return Val(taint=st.stack_unknown_taint)
        if kind == "region":
            if where[1] == NULL_REGION:
                return PUBLIC  # a genuine null deref crashes; it does not leak
            return self.region(where[1]).load(where[2])
        if kind == "multi":
            out = None
            for rn in where[1]:
                lv = self.region(rn).load(where[2])
                out = lv if out is None else join_val(out, lv)
            return out if out is not None else PUBLIC
        return Val(taint=self.region("wild").summary_taint)

    def mem_store(self, where, st: State, v: Val, frame=None):
        kind = where[0]
        if kind == "stack":
            off = where[1]
            if off is not None:
                st.stack[off] = v
                if frame in self.regions:  # escaped frame: keep the mirror fresh
                    self.regions[frame].store(off, v)
            elif v.taint:
                st.stack_unknown_taint = True
            return
        if kind == "region":
            if where[1] != NULL_REGION:
                self.region(where[1]).store(where[2], v)
            return
        if kind == "multi":
            for rn in where[1]:  # weak update: any of these may be the target
                self.region(rn).store(where[2], v)
            return
        if v.taint:
            self.region("wild").summary_taint = True

    @staticmethod
    def _where_shift(where, delta):
        if delta == 0:
            return where
        if where[0] == "stack" and where[1] is not None:
            return ("stack", where[1] + delta)
        if where[0] == "region" and where[2] is not None:
            return ("region", where[1], where[2] + delta)
        return where

    def mem_taint_wide(self, mem: Mem, st: State, frame, insn, width) -> bool:
        """Taint of the granules beyond the first of a `width`-byte access."""
        where, _ = self.resolve_addr(mem, st, frame, insn)
        t = False
        for g in range(8, width, 8):
            t |= self.mem_load(self._where_shift(where, g), st, frame).taint
        return t

    def mem_store_wide(self, mem: Mem, st: State, v: Val, frame, insn, width):
        """Store `v` into every 8-byte granule a `width`-byte access covers.
        The first granule was already written through write_operand (which also
        raised any B02); this fills in the rest."""
        where, _ = self.resolve_addr(mem, st, frame, insn)
        for g in range(8, width, 8):
            self.mem_store(self._where_shift(where, g), st, v, frame)

    # -------------------------------------------------------------- operand values

    def read_operand(self, parsed, st: State, insn, site, frame, check_addr=True) -> Val:
        kind = parsed[0]
        if kind == "imm":
            return NULL_PTR if parsed[1] == 0 else PUBLIC
        if kind == "reg":
            name = parsed[1]
            canon = GPR_CANON.get(name)
            if canon:
                if canon == "rsp":
                    return Val(False, frame, st.sp_off)
                return st.regs.get(canon, PUBLIC)
            vm = VEC_RE.match(name)
            if vm:
                vn = f"v{vm.group(1)}"
                t = st.vec.get(vn, False)
                if not t and vn in st.vecz:
                    return NULL_PTR  # zeroed vector: spills write known-zero slots
                return Val(taint=t)
            km = KMASK_RE.match(name)
            if km:
                return Val(taint=st.kmask.get(name, False))
            return PUBLIC
        if kind == "mem":
            mem = parsed[1]
            if mem.base == "rip" and insn.reloc_type and "GOTPCREL" in insn.reloc_type:
                # GOT entry load: the loaded value IS the symbol's address.
                self.region(f"global:{insn.reloc}")
                return Val(False, f"global:{insn.reloc}", 0)
            where, addr_taint = self.resolve_addr(mem, st, frame, insn)
            if check_addr and addr_taint:
                self.flag("B02", site, insn, "memory operand address derives from secret data")
            if mem.kmask and st.kmask.get(mem.kmask, False):
                self.flag("B02", site, insn,
                          f"masked memory access under tainted k-mask %{mem.kmask}")
            return self.mem_load(where, st, frame)
        return PUBLIC

    def write_operand(self, parsed, st: State, v: Val, insn, site, frame):
        kind = parsed[0]
        if kind == "reg":
            name = parsed[1]
            canon = GPR_CANON.get(name)
            if canon:
                if canon == "rsp":
                    st.sp_off = v.off if v.region == frame else None
                    return
                if canon != "rip":
                    st.regs[canon] = v
                return
            vm = VEC_RE.match(name)
            if vm:
                vn = f"v{vm.group(1)}"
                st.vec[vn] = v.taint
                if not v.taint and v.region == NULL_REGION:
                    st.vecz.add(vn)
                else:
                    st.vecz.discard(vn)
                return
            km = KMASK_RE.match(name)
            if km:
                st.kmask[name] = v.taint
            return
        if kind == "mem":
            mem = parsed[1]
            where, addr_taint = self.resolve_addr(mem, st, frame, insn)
            if addr_taint:
                self.flag("B02", site, insn, "memory operand address derives from secret data")
            if mem.kmask and st.kmask.get(mem.kmask, False):
                self.flag("B02", site, insn,
                          f"masked store under tainted k-mask %{mem.kmask} "
                          f"(written byte set depends on a secret)")
            self.mem_store(where, st, v, frame)

    # -------------------------------------------------------------- calls

    def call_signature(self, st: State):
        sig = []
        for r in ARG_REGS + ("rax",):
            v = st.regs.get(r, PUBLIC)
            sig.append((r, v.taint, v.region, v.off))
        for i in range(8):
            sig.append((f"v{i}", st.vec.get(f"v{i}", False)))
        return tuple(sig)

    def handle_call(self, callee, st: State, insn, site, depth, frame):
        """Applies the effect of a (direct) call to `callee` on st."""
        base_name = callee.split("@")[0]
        # Pointers into the caller's frame may escape through arguments: mirror the
        # flow-sensitive stack into a global region so a followed callee (or a later
        # reload of an untouched slot) sees the values.
        if any(region_has(st.regs.get(r, PUBLIC).region, frame) for r in ARG_REGS):
            mirror = self.region(frame)
            for off, v in st.stack.items():
                mirror.store(off, v)
        # Allocators return a fresh, public allocation: give each call site its own
        # region so heap traffic does not collapse into one taint blob.
        if ALLOC_RE.match(base_name):
            region = f"heap:{site}:{insn.address:x}"
            self.region(region)
            self.havoc_after_call(st, ret=Val(False, region, 0))
            return
        # memcpy-family: constant-time for a public length; propagate region taint.
        if base_name in self.allow_secret:
            dst = st.regs.get("rdi", PUBLIC)
            src = st.regs.get("rsi", PUBLIC)
            moved_taint = False
            if base_name.startswith(("memcpy", "memmove", "__memcpy", "__memmove",
                                     "mempcpy")):
                for rn in region_set(src.region):
                    r = self.region(rn)
                    moved_taint |= r.secret_data or r.summary_taint or any(
                        v.taint for v in r.fields.values())
                moved_taint |= src.taint
            elif base_name.startswith(("memset", "__memset")):
                moved_taint = st.regs.get("rsi", PUBLIC).taint
            if moved_taint:
                drs = region_set(dst.region)
                if dst.region == NULL_REGION:
                    pass  # write through known-null: crashes, does not leak
                elif drs:
                    for rn in drs:
                        self.region(rn).summary_taint = True
                        self.region(rn).store(dst.off, SECRET)
                else:
                    self.region("wild").summary_taint = True
            self.havoc_after_call(st, ret=dst)
            return
        if callee in self.dis.symbols and self.dis.symbols[callee].insns:
            # Same-object call: follow it with the caller's argument state.
            self.havoc_after_call(st, ret=self.analyze_callee(callee, st, depth))
            return
        if self.is_public_allowed(base_name):
            # Vetted public-path helper (C++ runtime, unwinder, thread runtime):
            # allowlisted means not a sink, so no argument checks -- a stale secret
            # in a high argument register must not produce noise here. The source
            # linter (ct_lint CT004) is what gates which calls appear in regions.
            # The result gets a fresh public region (e.g. a getenv string), so a
            # later dereference does not fall into the untracked-memory bucket.
            self.invalidate_escaped_frame(st, frame)
            region = f"ext:{site}:{insn.address:x}"
            self.region(region)
            self.havoc_after_call(st, ret=Val(False, region, 0))
            return
        # Unknown external callee: nothing tainted -- by value or by reference --
        # may escape to it.
        self.invalidate_escaped_frame(st, frame)
        for r in ARG_REGS:
            v = st.regs.get(r, PUBLIC)
            if v.taint:
                self.flag("B04", site, insn,
                          f"tainted value in %{r} escapes to non-allowlisted "
                          f"callee {base_name}")
            else:
                for rn in region_set(v.region):
                    reg = self.region(rn)
                    if reg.secret_data or reg.summary_taint:
                        self.flag("B04", site, insn,
                                  f"pointer to secret bytes in %{r} escapes to "
                                  f"non-allowlisted callee {base_name}")
                        break
        self.havoc_after_call(st, ret=PUBLIC)

    def invalidate_escaped_frame(self, st: State, frame: str):
        """An external call that received a pointer into our frame may rewrite any
        frame slot (e.g. _M_start_thread filling in a std::thread): forget the
        overlay so stale (possibly tainted) spills do not survive the call. The
        slots become unknown-public, shadowing the mirror region too."""
        if not any(region_has(st.regs.get(r, PUBLIC).region, frame) for r in ARG_REGS):
            return
        unknown = Val(False, None, None)
        for off in list(st.stack):
            st.stack[off] = unknown
        mirror = self.regions.get(frame)
        if mirror is not None:
            for off in mirror.fields:
                st.stack.setdefault(off, unknown)

    def havoc_after_call(self, st: State, ret: Val):
        for r in CALLER_SAVED:
            st.regs[r] = PUBLIC
        st.regs["rax"] = ret
        for i in range(16):
            st.vec[f"v{i}"] = False
        st.vecz.clear()
        for k in list(st.kmask):
            st.kmask[k] = False
        st.flags = False

    def analyze_callee(self, callee, st: State, depth) -> Val:
        sig = (callee, self.call_signature(st))
        if sig in self.summaries:
            return self.summaries[sig]
        if callee in self.in_progress or depth >= MAX_CALL_DEPTH:
            # Recursion (or too deep): the body is audited under the outer entry
            # state; assume the return value may carry taint.
            return SECRET
        entry = State()
        for r in ARG_REGS + ("rax",):
            entry.regs[r] = st.regs.get(r, PUBLIC)
        for i in range(8):
            entry.vec[f"v{i}"] = st.vec.get(f"v{i}", False)
        self.in_progress.add(callee)
        try:
            ret_val = self.analyze_cfg(callee, entry, depth + 1)
        finally:
            self.in_progress.discard(callee)
        self.summaries[sig] = ret_val
        return ret_val

    # -------------------------------------------------------------- CFG + fixpoint

    def build_cfg(self, symbol):
        """-> (insns, addr_index, block_starts, succ map). Includes `<symbol>.cold`."""
        insns = list(self.dis.symbols[symbol].insns)
        cold = f"{symbol}.cold"
        if cold in self.dis.symbols:
            insns += self.dis.symbols[cold].insns
        addrs = {i.address: n for n, i in enumerate(insns)}
        leaders = {0}
        for n, i in enumerate(insns):
            mn = i.mnemonic
            is_jump = mn == "jmp" or COND_JUMPS.match(mn)
            if is_jump:
                t = i.target()
                if t and t[0] in addrs:
                    leaders.add(addrs[t[0]])
                if n + 1 < len(insns):
                    leaders.add(n + 1)
            elif mn.startswith("ret") or mn == "call" or mn == "callq":
                if n + 1 < len(insns):
                    leaders.add(n + 1)
        return insns, addrs, sorted(leaders)

    def analyze_cfg(self, symbol, entry: State, depth) -> Val:
        insns, addrs, leaders = self.build_cfg(symbol)
        if not insns:
            return SECRET
        self._frame_counter += 1
        frame = f"frame:{symbol}:{self._frame_counter}"
        entry = entry.copy()
        entry.sp_off = 0
        leader_set = set(leaders)
        block_of = {}
        for n, _ in enumerate(insns):
            block_of[n] = max(b for b in leaders if b <= n)
        in_states = {0: entry}
        work = [0]
        ret_val = None
        visits = {}
        while work:
            b = work.pop()
            visits[b] = visits.get(b, 0) + 1
            if visits[b] > 80:
                continue  # safety valve; join monotonicity should converge long before
            st = in_states[b].copy()
            n = b
            while n < len(insns):
                i = insns[n]
                if n != b and n in leader_set:
                    # fallthrough into the next block
                    self.propagate(n, st, in_states, work)
                    break
                nxt, rt = self.step(i, st, symbol, frame, depth, addrs, in_states, work,
                                    leader_set)
                if rt is not None:
                    ret_val = rt if ret_val is None else join_val(ret_val, rt)
                if nxt == "stop":
                    break
                n += 1
        return ret_val if ret_val is not None else PUBLIC

    def propagate(self, block, st: State, in_states, work):
        if block in in_states:
            if state_leq(st, in_states[block]):
                return
            in_states[block] = join_state(in_states[block], st)
        else:
            in_states[block] = st.copy()
        if block not in work:
            work.append(block)

    # -------------------------------------------------------------- transfer

    def step(self, insn, st: State, site, frame, depth, addrs, in_states, work,
             leader_set):
        """Executes one instruction; returns ('fall'|'stop', ret_val | None)."""
        mn = insn.mnemonic
        ops = [parse_operand(o) for o in insn.operands]

        def rd(p, check_addr=True):
            return self.read_operand(p, st, insn, site, frame, check_addr)

        def wr(p, v):
            self.write_operand(p, st, v, insn, site, frame)

        # ---- no-ops / frame bookkeeping --------------------------------------
        if NOP_RE.match(mn):
            if mn == "leave":
                rbp = st.regs.get("rbp", PUBLIC)
                st.sp_off = (rbp.off + 8) if rbp.region == frame and rbp.off is not None else None
                st.regs["rbp"] = Val(rbp.taint)
                return ("fall", None)
            if mn.startswith("ret"):
                return ("stop", st.regs.get("rax", PUBLIC))
            return ("fall", None)

        if mn in ("push", "pushq"):
            v = rd(ops[0]) if ops else PUBLIC
            if st.sp_off is not None:
                st.sp_off -= 8
                st.stack[st.sp_off] = v
            elif v.taint:
                st.stack_unknown_taint = True
            return ("fall", None)
        if mn in ("pop", "popq"):
            v = Val(taint=st.stack_unknown_taint)
            if st.sp_off is not None:
                v = st.stack.get(st.sp_off, PUBLIC)
                st.sp_off += 8
            if ops:
                wr(ops[0], v)
            return ("fall", None)

        # ---- control flow ----------------------------------------------------
        if COND_JUMPS.match(mn):
            if mn in ("jrcxz", "jecxz"):
                if st.regs.get("rcx", PUBLIC).taint:
                    self.flag("B01", site, insn, "conditional branch on tainted %rcx")
            elif mn.startswith("loop"):
                if st.regs.get("rcx", PUBLIC).taint or (mn != "loop" and st.flags):
                    self.flag("B01", site, insn, "loop instruction on tainted count/flags")
            elif st.flags:
                self.flag("B01", site, insn,
                          "conditional branch on flags derived from secret data")
            t = insn.target()
            if t and t[0] in addrs:
                self.propagate(self._block_of(addrs[t[0]], leader_set), st, in_states, work)
            return ("fall", None)

        if mn == "jmp":
            t = insn.target()
            callee = insn.reloc
            if t and t[0] in addrs and callee is None:
                self.propagate(self._block_of(addrs[t[0]], leader_set), st, in_states, work)
                return ("stop", None)
            # Tail call (reloc'd or out-of-symbol target): call + return.
            name = callee or (t[1].split("+")[0] if t else None)
            if name:
                self.handle_call(name, st, insn, site, depth, frame)
                return ("stop", st.regs.get("rax", PUBLIC))
            return ("stop", None)

        if mn.startswith("jmp") or (ops and ops[0][0] == "ind" and mn[0] == "j"):
            return ("stop", None)

        if mn in ("call", "callq"):
            if ops and ops[0][0] == "ind":
                if isinstance(ops[0][1], Mem):
                    tv = self.read_operand(("mem", ops[0][1]), st, insn, site, frame)
                elif isinstance(ops[0][1], str):
                    tv = self.read_operand(("reg", ops[0][1], None), st, insn, site, frame)
                else:
                    tv = PUBLIC
                if tv.taint:
                    self.flag("B04", site, insn, "indirect call through tainted pointer")
                self.havoc_after_call(st, ret=PUBLIC)
                return ("fall", None)
            t = insn.target()
            callee = insn.reloc or (t[1].split("+")[0] if t else None)
            if callee == site:
                # Direct self-recursion: body audited under this entry; havoc.
                self.havoc_after_call(st, ret=SECRET)
                return ("fall", None)
            if callee:
                self.handle_call(callee, st, insn, site, depth, frame)
                if NORETURN_RE.match(callee.split("@")[0]):
                    # No fallthrough: the bytes after a throw/abort call belong to a
                    # different (often register-incompatible) path.
                    return ("stop", None)
            else:
                self.havoc_after_call(st, ret=PUBLIC)
            return ("fall", None)

        # ---- indirect jumps --------------------------------------------------
        if ops and ops[0][0] == "ind":
            iv = PUBLIC
            if len(ops[0]) >= 2 and isinstance(ops[0][1], str):
                iv = self.read_operand(("reg", ops[0][1], None), st, insn, site, frame)
            elif len(ops[0]) >= 2 and isinstance(ops[0][1], Mem):
                iv = self.read_operand(("mem", ops[0][1]), st, insn, site, frame)
            if iv.taint:
                self.flag("B01", site, insn, "indirect jump through tainted pointer")
            return ("stop", None)

        # ---- variable latency ------------------------------------------------
        if VARLAT_RE.match(mn):
            tainted = any(rd(p).taint for p in ops if p[0] in ("reg", "mem"))
            if mn.startswith(("div", "idiv")):
                tainted |= st.regs.get("rax", PUBLIC).taint
                tainted |= st.regs.get("rdx", PUBLIC).taint
            if tainted:
                self.flag("B03", site, insn,
                          f"variable-latency `{mn}` on tainted input")
            # Result registers
            if mn.startswith(("div", "idiv")):
                st.regs["rax"] = SECRET if tainted else PUBLIC
                st.regs["rdx"] = st.regs["rax"]
                st.flags = tainted
            elif ops:
                wr(ops[-1], Val(taint=tainted))
            return ("fall", None)

        if GATHER_SCATTER_RE.match(mn):
            # Vector gather/scatter: the index vector IS the address set.
            idx_taint = any(st.vec.get(f"v{VEC_RE.match(p[1]).group(1)}", False)
                            for p in ops if p[0] == "reg" and VEC_RE.match(p[1]))
            for p in ops:
                if p[0] == "mem" and p[1].index and VEC_RE.match(p[1].index):
                    idx_taint |= st.vec.get(f"v{VEC_RE.match(p[1].index).group(1)}", False)
            if idx_taint:
                self.flag("B02", site, insn, "gather/scatter with tainted index vector")
            if ops and ops[-1][0] == "reg":
                wr(ops[-1], Val(taint=True))
            return ("fall", None)

        # ---- string ops ------------------------------------------------------
        if STRING_OP_RE.match(mn):
            if "rep" in " ".join(insn.prefixes) and st.regs.get("rcx", PUBLIC).taint:
                self.flag("B01", site, insn, "rep-string op with tainted count")
            if st.regs.get("rdi", PUBLIC).taint or st.regs.get("rsi", PUBLIC).taint:
                self.flag("B02", site, insn, "string op with tainted address register")
            src = st.regs.get("rsi", PUBLIC)
            dst = st.regs.get("rdi", PUBLIC)
            if mn.startswith(("movs", "stos")):
                moved = SECRET if any(self.region(rn).secret_data
                                      for rn in region_set(src.region)) else PUBLIC
                for rn in region_set(dst.region):
                    self.region(rn).store(None, moved)
            return ("fall", None)

        # ---- sign extensions -------------------------------------------------
        if mn in SIGN_EXTEND:
            t = st.regs.get("rax", PUBLIC).taint
            if mn in ("cqo", "cqto", "cdq", "cltd"):
                st.regs["rdx"] = Val(taint=t)
            else:
                st.regs["rax"] = Val(taint=t)
            return ("fall", None)

        # ---- setcc / cmov ----------------------------------------------------
        if SETCC_RE.match(mn):
            wr(ops[0], Val(taint=st.flags))
            return ("fall", None)
        if CMOV_RE.match(mn):
            src = rd(ops[0])
            dst = rd(ops[1], check_addr=False) if ops[1][0] == "reg" else PUBLIC
            out = join_val(src, dst)
            wr(ops[1], Val(out.taint or st.flags, out.region, out.off))
            return ("fall", None)

        # ---- GPR moves -------------------------------------------------------
        if GPR_MOV_RE.match(mn) and not any(
                p[0] == "reg" and VEC_RE.match(p[1]) for p in ops):
            if len(ops) == 2:
                wr(ops[1], rd(ops[0]))
            return ("fall", None)

        if mn in ("xchg", "xchgq", "xchgl"):
            if len(ops) == 2:
                a, b = rd(ops[0]), rd(ops[1])
                wr(ops[0], b)
                wr(ops[1], a)
            return ("fall", None)

        if mn == "lea" or mn.startswith("lea"):
            # Address arithmetic: no memory access, keeps region/offset.
            if len(ops) == 2 and ops[0][0] == "mem":
                mem = ops[0][1]
                taint = False
                region = None
                off = None
                if mem.base:
                    canon = GPR_CANON.get(mem.base, mem.base)
                    if canon == "rsp":
                        bv = Val(False, frame, st.sp_off)
                    elif canon == "rip":
                        gr = f"global:{insn.reloc}" if insn.reloc else "globals"
                        self.region(gr)
                        bv = Val(False, gr, 0 if insn.reloc else None)
                    else:
                        bv = st.regs.get(canon, PUBLIC)
                    taint |= bv.taint
                    region = bv.region
                    off = (bv.off + mem.disp) if bv.off is not None else None
                if mem.index:
                    iv = st.regs.get(GPR_CANON.get(mem.index, mem.index), PUBLIC)
                    taint |= iv.taint
                    off = None
                    # base + scaled index: either operand may be the real pointer
                    # (stride values can carry a spurious arg region) -- keep both.
                    region = make_region(region_set(region) | region_set(iv.region))
                wr(ops[1], Val(taint, region, off))
            return ("fall", None)

        # ---- GPR arithmetic --------------------------------------------------
        if CMP_RE.match(mn):
            taints = [rd(p).taint for p in ops]
            st.flags = any(taints)
            return ("fall", None)

        if ARITH_RE.match(mn) and not any(
                p[0] == "reg" and (VEC_RE.match(p[1]) or KMASK_RE.match(p[1]))
                for p in ops):
            base = arith_base(mn)
            # Zero idioms kill taint.
            if base in ("xor", "sub", "sbb") and len(ops) == 2 and ops[0] == ops[1] \
                    and ops[0][0] == "reg" and base != "sbb":
                wr(ops[1], NULL_PTR)
                st.flags = False
                return ("fall", None)
            if base == "sbb" and len(ops) == 2 and ops[0] == ops[1] and ops[0][0] == "reg":
                # sbb r,r = -CF: the canonical flags->mask idiom; dataflow, not a branch.
                wr(ops[1], Val(taint=st.flags))
                return ("fall", None)
            srcs = [rd(p) for p in ops[:-1]] if len(ops) > 1 else []
            dst_parsed = ops[-1] if ops else None
            dst_old = rd(dst_parsed, check_addr=False) if dst_parsed else PUBLIC
            taint = any(s.taint for s in srcs) or dst_old.taint
            if base in ("adc", "sbb", "rcl", "rcr"):
                taint |= st.flags
            region, off = dst_old.region, dst_old.off
            if base in ("add", "sub") and len(ops) == 2 and ops[0][0] == "imm" \
                    and region is not None and off is not None:
                m = re.match(r"^\$(-?0x[0-9a-f]+|-?\d+)", insn.operands[0])
                if m:
                    delta = int(m.group(1), 0)
                    off = off + delta if base == "add" else off - delta
                else:
                    off = None
            elif base in ("add", "sub"):
                # Pointer arithmetic: `add base, scaled_index` must keep the
                # pointed-to region, whichever operand carried it -- and when
                # several operands carry regions (a grown vector cursor, a stride
                # that inherited an arg region), keep the union so a later store
                # through the result stays attributed instead of going wild.
                # Known-null values act like plain integers here.
                rs = frozenset()
                for v in [dst_old, *srcs]:
                    rs |= region_set(v.region)
                region = make_region(rs)
                off = None
            elif base not in ("add", "sub"):
                region, off = (None, None) if base not in ("and",) else (region, None)
            if dst_parsed is not None and dst_parsed[0] in ("reg", "mem"):
                wr(dst_parsed, Val(taint, region, off))
            if base != "not":  # `not` writes no flags: the earlier ones stand
                st.flags = taint
            if mn.startswith(("mul", "imul")) and len(ops) == 1:
                t = taint or st.regs.get("rax", PUBLIC).taint
                st.regs["rax"] = Val(taint=t)
                st.regs["rdx"] = Val(taint=t)
                st.flags = t
            return ("fall", None)

        # ---- vector / k-mask -------------------------------------------------
        if VEC_MNEM_RE.match(mn) or any(
                p[0] == "reg" and (VEC_RE.match(p[1]) or KMASK_RE.match(p[1]))
                for p in ops):
            # Zero idioms: xor-like with identical source operands.
            if len(ops) >= 2 and ops[0] == ops[1] and \
                    re.match(r"^v?p?(xor|andn|sub|cmpgt)", mn) and \
                    (len(ops) == 2 or ops[-1] == ops[0] or len(ops) == 3):
                if re.match(r"^v?px?or|^v?pxor|^xorp|^vxorp", mn) or "xor" in mn:
                    wr(ops[-1], NULL_PTR)
                    return ("fall", None)
            width = vec_access_width(ops)
            taint = False
            for p in ops[:-1] if len(ops) > 1 else ops:
                taint |= rd(p).taint
                if p[0] == "mem" and width > 8:
                    taint |= self.mem_taint_wide(p[1], st, frame, insn, width)
            for p in ops:
                if p[0] == "reg" and p[2]:  # {%k} on a register operand
                    taint |= st.kmask.get(p[2], False)
                if p[0] == "mem" and p[1].kmask:
                    taint |= st.kmask.get(p[1].kmask, False)
            if mn.startswith(("ptest", "vptest", "ucomis", "comis", "vucomis",
                              "vcomis", "ktest", "kortest")):
                st.flags = taint or (rd(ops[-1]).taint if ops else False)
                return ("fall", None)
            if mn.startswith(("pmovmskb", "vpmovmskb", "movmsk", "vmovmsk", "kmov")):
                if ops:
                    wr(ops[-1], Val(taint=taint))
                return ("fall", None)
            if len(ops) > 1:
                val = Val(taint=taint)
                if len(ops) == 2 and VEC_FULL_MOVE_RE.match(mn) \
                        and ops[0][0] == "reg":
                    val = rd(ops[0])  # pure reg move/store: nullness survives
                wr(ops[-1], val)
                if ops[-1][0] == "mem" and width > 8:
                    self.mem_store_wide(ops[-1][1], st, val, frame, insn, width)
            return ("fall", None)

        # ---- unknown ---------------------------------------------------------
        self.note(f"{site}+0x{insn.address:x}: unmodeled mnemonic `{mn}` "
                  f"({insn.raw.strip()})")
        if len(ops) > 1:
            taint = any(rd(p).taint for p in ops[:-1])
            if ops[-1][0] in ("reg", "mem"):
                wr(ops[-1], Val(taint=taint))
            st.flags = taint
        return ("fall", None)

    @staticmethod
    def _block_of(n, leader_set):
        return max(b for b in leader_set if b <= n)

    # -------------------------------------------------------------- entry point

    def audit(self, audit_sym: AuditSymbol):
        self.root = audit_sym.name
        entry = State()
        for r in ARG_REGS:
            entry.regs[r] = Val(False, f"arg:{audit_sym.name}:{r}", 0)
            self.region(f"arg:{audit_sym.name}:{r}")
        for kind, reg in audit_sym.seeds:
            if kind == "val":
                entry.regs[reg] = SECRET
            else:
                region = f"arg:{audit_sym.name}:{reg}"
                entry.regs[reg] = Val(False, region, 0)
                self.region(region).secret_data = True
        self.analyze_cfg(audit_sym.name, entry, 0)


# ------------------------------------------------------------------ driver

def load_manifest(path: pathlib.Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def compile_unit(compiler, root, source, flags, opt, out_obj):
    cmd = [compiler, *flags, *opt.split(), "-c", str(root / source),
           "-I", str(root), "-o", str(out_obj)]
    r = subprocess.run(cmd, capture_output=True, text=True)
    if r.returncode != 0:
        raise SystemExit(f"ct_dataflow: compile failed: {' '.join(cmd)}\n{r.stderr}")


def audit_object(obj_path, markers, manifest, verbose, objdump="objdump",
                 backends=None):
    dis = ct_disasm.run_objdump(objdump, str(obj_path))
    if not dis.is_x86:
        return None, []  # dataflow model is x86-64 only; callers treat as skip
    findings = []
    audited = []
    for sym in markers:
        if backends is not None and sym.backend not in backends:
            continue
        if sym.name not in dis.symbols or not dis.symbols[sym.name].insns:
            findings.append(Finding("M01", sym.name, sym.name, 0, "-",
                                    "manifest symbol missing from object"))
            continue
        # Fresh analyzer per root: each root seeds different argument regions, so
        # region taint and call summaries must not bleed from one audit into the
        # next (a callee clean under root A's seeding may be dirty under B's).
        analyzer = Analyzer(dis, manifest, verbose=verbose)
        analyzer.audit(sym)
        findings.extend(analyzer.findings)
        audited.append(sym.name)
        if verbose:
            for n in analyzer.notes:
                print(f"  note: {n}", file=sys.stderr)
    return audited, findings


def active_backends() -> set | None:
    if os.environ.get("SNOOPY_KERNEL_BACKEND") == "generic":
        # Mirror the runtime dispatch pin: only the generic backend's code would run.
        return {"generic"}
    return None


def emit(findings, fmt, opt, label):
    if fmt == "json":
        print(json.dumps({"tool": "ct_dataflow", "opt": opt, "unit": label,
                          "findings": [f.record() for f in findings]}, indent=2))
    else:
        for f in findings:
            print(f"  {f.text()}")


def run_audit(args, manifest, root) -> int:
    unit = manifest["unit"]
    source = unit["source"]
    markers = parse_markers((root / source).read_text())
    if not markers:
        print(f"ct_dataflow: no ctdf-symbol markers in {source}")
        return 1
    # Roots the manifest requires: a root that silently fell out of the fixture would
    # leave every remaining audit clean while auditing nothing of its kernel.
    marked = {m.name for m in markers}
    missing = [r for r in manifest.get("required_roots", []) if r not in marked]
    if missing:
        print(f"ct_dataflow: required root(s) missing from {source}: {', '.join(missing)}")
        return 1
    opts = [args.opt] if args.opt else unit.get("opt_levels", ["-O2"])
    backends = active_backends()
    rc = 0
    for opt in opts:
        with tempfile.TemporaryDirectory() as tmp:
            obj = pathlib.Path(tmp) / "audit.o"
            compile_unit(args.compiler, root, source, unit.get("flags", []), opt, obj)
            audited, findings = audit_object(obj, markers, manifest, args.verbose,
                                             args.objdump, backends)
        if audited is None:
            print(f"ct_dataflow: object is not x86-64; dataflow audit skipped")
            return 0
        if findings:
            rc = 1
            if args.format == "text":
                print(f"ct_dataflow {opt}: {len(findings)} finding(s) "
                      f"across {len(audited)} audited symbol(s):")
            emit(findings, args.format, opt, source)
        else:
            if args.format == "json":
                emit(findings, args.format, opt, source)
            else:
                which = "generic-only" if backends == {"generic"} else "all backends"
                print(f"ct_dataflow {opt}: clean -- {len(audited)} symbol(s) audited "
                      f"({which})")
    return rc


def run_self_test(args, manifest, root) -> int:
    corpus = root / "tools" / "ct_dataflow_selftest"
    failures = 0
    for src in sorted(corpus.glob("*.cc")):
        markers = parse_markers(src.read_text())
        if not markers:
            print(f"SELF-TEST FAIL {src.name}: no ctdf-symbol markers")
            failures += 1
            continue
        with tempfile.TemporaryDirectory() as tmp:
            obj = pathlib.Path(tmp) / "case.o"
            compile_unit(args.compiler, root, f"tools/ct_dataflow_selftest/{src.name}",
                         ["-std=c++20"], "-O2", obj)
            audited, findings = audit_object(obj, markers, manifest, args.verbose,
                                             args.objdump)
        if audited is None:
            print("self-test skip: object is not x86-64")
            return 0
        by_symbol = {}
        for f in findings:
            by_symbol.setdefault(f.symbol, set()).add(f.rule)
        for sym in markers:
            got = by_symbol.get(sym.name, set())
            missed = sym.expect - got
            extra = got - sym.expect
            if missed:
                print(f"SELF-TEST FAIL {src.name}:{sym.name}: planted violation(s) "
                      f"not caught: {sorted(missed)}")
                failures += 1
            if extra:
                print(f"SELF-TEST FAIL {src.name}:{sym.name}: unexpected finding(s): "
                      f"{sorted(extra)}")
                for f in findings:
                    if f.symbol == sym.name and f.rule in extra:
                        print(f"    {f.text()}")
                failures += 1
            if not missed and not extra:
                what = ",".join(sorted(sym.expect)) if sym.expect else "clean"
                print(f"self-test ok: {src.name}:{sym.name} ({what})")
    # The real audit unit must also come back clean (at the default opt levels).
    rc = run_audit(args, manifest, root)
    if rc != 0:
        print("SELF-TEST FAIL: real audit unit has findings")
        failures += 1
    if failures:
        print(f"ct_dataflow self-test: {failures} failure(s)")
        return 1
    print("ct_dataflow self-test: all planted violations caught, real tree clean")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repo-root", default=".", type=pathlib.Path)
    ap.add_argument("--manifest", default=None, type=pathlib.Path)
    ap.add_argument("--compiler", default=os.environ.get("CXX", "g++"))
    ap.add_argument("--objdump", default="objdump")
    ap.add_argument("--opt", default=None,
                    help="single optimization recipe (default: manifest opt_levels)")
    ap.add_argument("--format", choices=("text", "json"), default="text")
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--verbose", action="store_true")
    args = ap.parse_args()
    root = args.repo_root.resolve()
    manifest = load_manifest(args.manifest or root / "tools" / "ct_binary_manifest.json")
    if args.self_test:
        return run_self_test(args, manifest, root)
    return run_audit(args, manifest, root)


if __name__ == "__main__":
    sys.exit(main())
