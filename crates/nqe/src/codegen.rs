//! Code generation (compiler phase 6, paper §5.1): lower a logical plan
//! to physical iterators, resolve attribute names to register slots via
//! the attribute manager (aliasing renames where safe), and assemble NVM
//! programs for all scalar subscripts.

use std::sync::Arc;

use parking_lot::Mutex;

use algebra::attrmgr::{AttrManager, Slot};
use algebra::kernel::{set_steps, step_kernel, SetSteps, StepKernelShape};
use algebra::scalar::{CmpMode, ScalarExpr};
use algebra::LogicalOp;
use compiler::CompiledQuery;

use crate::iter::{
    CompiledPred, ConcatIter, CounterIter, DJoinIter, DedupIter, MapIter, MemoMapIter, MemoXIter,
    NestedEval, PhysIter, RenameCopyIter, SelectIter, SemiJoinIter, SetStepIter, SingletonIter,
    SortIter, TmpCsIter, TokenizeIter, UnnestMapIter,
};
use crate::kernel::StepKernel;
use crate::nvm::{Instr, Program, Reg};
use crate::profile::{OpStats, Profile, ProfileEntry, ProfiledIter, SharedStats};

/// Well-known slots of the execution frame.
#[derive(Clone, Copy, Debug)]
pub struct FrameInfo {
    /// Total register-frame width.
    pub width: usize,
    /// Slot of the context node `cn`.
    pub cn: Slot,
    /// Slot of the top-level context position `cp`.
    pub cp: Slot,
    /// Slot of the top-level context size `cs`.
    pub cs: Slot,
}

/// A physical query ready for execution.
pub enum PhysicalQuery {
    /// Sequence-valued: the iterator tree plus frame layout.
    Sequence {
        /// Root iterator.
        root: Box<dyn PhysIter>,
        /// Frame layout.
        frame: FrameInfo,
    },
    /// Scalar-valued: a compiled subscript (with nested plans).
    Scalar {
        /// Compiled program.
        pred: CompiledPred,
        /// Frame layout.
        frame: FrameInfo,
        /// Profile counters for the top-level scalar evaluation itself
        /// (`None` when built without profiling — the untimed path
        /// allocates nothing).
        stats: Option<SharedStats>,
    },
}

/// Lower a compiled (logical) query to the physical algebra.
pub fn build_physical(q: &CompiledQuery) -> PhysicalQuery {
    build(q, None).0
}

/// Lower with per-operator profiling (paper §6.2: "profiling NQE").
/// Every iterator is wrapped by a counting adapter; the returned
/// [`Profile`] shares its counters with the plan.
pub fn build_physical_profiled(q: &CompiledQuery) -> (PhysicalQuery, Profile) {
    let (phys, profile) = build(q, Some(Profile::default()));
    (phys, profile.expect("requested"))
}

fn build(q: &CompiledQuery, profile: Option<Profile>) -> (PhysicalQuery, Option<Profile>) {
    match q {
        CompiledQuery::Sequence(plan) => {
            let mut mgr = AttrManager::for_plan(plan);
            let mut cg = Codegen { mgr: &mut mgr, sites: set_steps(plan), profile, depth: 0 };
            let root = cg.build_iter(plan);
            let profile = cg.profile.take();
            let frame = finish_frame(&mut mgr);
            (PhysicalQuery::Sequence { root, frame }, profile)
        }
        CompiledQuery::Scalar(expr) => {
            // Reuse the plan-wide assignment analysis by wrapping the
            // scalar in a selection over □.
            let wrapper = LogicalOp::select(LogicalOp::Singleton, expr.clone());
            let mut mgr = AttrManager::for_plan(&wrapper);
            let mut cg = Codegen { mgr: &mut mgr, sites: SetSteps::default(), profile, depth: 0 };
            // With profiling on, synthesize a root entry for the scalar
            // evaluation itself so the profile of a boolean/numeric query
            // is never empty; nested sequence plans hang one level below.
            let stats = cg.profile.as_mut().map(|p| {
                let stats: SharedStats = Arc::new(Mutex::new(OpStats::default()));
                p.entries.push(ProfileEntry {
                    label: format!("scalar[{expr}]"),
                    depth: 0,
                    stats: stats.clone(),
                });
                stats
            });
            if stats.is_some() {
                cg.depth = 1;
            }
            let pred = cg.compile_pred(expr);
            let profile = cg.profile.take();
            let frame = finish_frame(&mut mgr);
            (PhysicalQuery::Scalar { pred, frame, stats }, profile)
        }
    }
}

fn finish_frame(mgr: &mut AttrManager) -> FrameInfo {
    let cn = mgr.slot("cn");
    let cp = mgr.slot("cp");
    let cs = mgr.slot("cs");
    FrameInfo { width: mgr.frame_width(), cn, cp, cs }
}

struct Codegen<'m, 'p> {
    mgr: &'m mut AttrManager,
    /// The plan's `Π^D ∘ Υ` pairs that lower to one set step.
    sites: SetSteps<'p>,
    profile: Option<Profile>,
    depth: usize,
}

impl Codegen<'_, '_> {
    fn build_iter(&mut self, op: &LogicalOp) -> Box<dyn PhysIter> {
        // Register the entry before recursing so the profile reads in
        // plan (pre-order) order.
        let prof_idx = self.profile.as_mut().map(|p| {
            p.entries.push(ProfileEntry {
                label: self.sites.label(op),
                depth: self.depth,
                stats: Arc::new(Mutex::new(OpStats::default())),
            });
            p.entries.len() - 1
        });
        self.depth += 1;
        let inner = self.build_iter_inner(op);
        self.depth -= 1;
        match (prof_idx, &mut self.profile) {
            (Some(i), Some(p)) => {
                let stats = p.entries[i].stats.clone();
                Box::new(ProfiledIter::new(inner, stats))
            }
            _ => inner,
        }
    }

    fn build_iter_inner(&mut self, op: &LogicalOp) -> Box<dyn PhysIter> {
        if let Some(&shape) = self.sites.get(op) {
            let input = self.build_iter(shape.input);
            let ctx = self.mgr.slot(shape.context);
            let out = self.mgr.slot(shape.attr);
            return Box::new(SetStepIter::new(input, ctx, out, shape.axis, shape.test.clone()));
        }
        match op {
            LogicalOp::Singleton => Box::new(SingletonIter::new()),
            LogicalOp::Select { input, pred } => {
                let input = self.build_iter(input);
                let pred = self.compile_pred(pred);
                Box::new(SelectIter::new(input, pred))
            }
            LogicalOp::DedupBy { input, attr } => {
                let input = self.build_iter(input);
                let slot = self.mgr.slot(attr);
                Box::new(DedupIter::new(input, slot))
            }
            LogicalOp::Rename { input, from, to } => {
                match self.mgr.rename(from, to) {
                    // Aliased by the attribute manager: no copy, no
                    // operator (paper §5.1).
                    None => self.build_iter(input),
                    Some((f, t)) => {
                        let input = self.build_iter(input);
                        Box::new(RenameCopyIter::new(input, f, t))
                    }
                }
            }
            LogicalOp::MapExpr { input, attr, expr } => {
                let input = self.build_iter(input);
                let out = self.mgr.slot(attr);
                let expr = self.compile_pred(expr);
                Box::new(MapIter::new(input, out, expr))
            }
            LogicalOp::CounterMap { input, attr, reset_on } => {
                let input = self.build_iter(input);
                let out = self.mgr.slot(attr);
                let reset = reset_on.as_ref().map(|a| self.mgr.slot(a));
                Box::new(CounterIter::new(input, out, reset))
            }
            LogicalOp::MemoMap { input, attr, expr, key } => {
                let input = self.build_iter(input);
                let out = self.mgr.slot(attr);
                let key = self.mgr.slot(key);
                let expr = self.compile_pred(expr);
                Box::new(MemoMapIter::new(input, out, key, expr))
            }
            LogicalOp::DJoin { left, right } | LogicalOp::Cross { left, right } => {
                // A cross product is a d-join whose dependent side happens
                // to have no free attributes.
                let left = self.build_iter(left);
                let right = self.build_iter(right);
                Box::new(DJoinIter::new(left, right))
            }
            LogicalOp::SemiJoin { left, right, pred } => self.build_semi(left, right, pred, false),
            LogicalOp::AntiJoin { left, right, pred } => self.build_semi(left, right, pred, true),
            LogicalOp::UnnestMap { input, context, attr, axis, test, hint, probe } => {
                let input = self.build_iter(input);
                let ctx = self.mgr.slot(context);
                let out = self.mgr.slot(attr);
                Box::new(UnnestMapIter::new(
                    input,
                    ctx,
                    out,
                    *axis,
                    test.clone(),
                    *hint,
                    probe.clone(),
                ))
            }
            LogicalOp::TokenizeMap { input, attr, expr } => {
                let input = self.build_iter(input);
                let out = self.mgr.slot(attr);
                let expr = self.compile_pred(expr);
                Box::new(TokenizeIter::new(input, out, expr))
            }
            LogicalOp::Concat { parts } => {
                let parts = parts.iter().map(|p| self.build_iter(p)).collect();
                Box::new(ConcatIter::new(parts))
            }
            LogicalOp::SortBy { input, attr } => {
                let input = self.build_iter(input);
                let slot = self.mgr.slot(attr);
                Box::new(SortIter::new(input, slot))
            }
            LogicalOp::TmpCs { input, cs, group } => {
                let input = self.build_iter(input);
                let cs = self.mgr.slot(cs);
                let group = group.as_ref().map(|g| self.mgr.slot(g));
                Box::new(TmpCsIter::new(input, cs, group))
            }
            LogicalOp::MemoX { input, key } => {
                let input = self.build_iter(input);
                let key = self.mgr.slot(key);
                Box::new(MemoXIter::new(input, key))
            }
        }
    }

    fn build_semi(
        &mut self,
        left: &LogicalOp,
        right: &LogicalOp,
        pred: &ScalarExpr,
        anti: bool,
    ) -> Box<dyn PhysIter> {
        let right_defined: Vec<Slot> =
            right.defined_attrs().iter().map(|a| self.mgr.slot(a)).collect();
        let left = self.build_iter(left);
        let right = self.build_iter(right);
        let pred = self.compile_pred(pred);
        Box::new(SemiJoinIter::new(left, right, pred, right_defined, anti))
    }

    /// Compile a scalar subscript to an NVM program.
    fn compile_pred(&mut self, e: &ScalarExpr) -> CompiledPred {
        let mut prog = Program::default();
        let mut nested = Vec::new();
        let result = self.emit(e, &mut prog, &mut nested);
        prog.result = result;
        CompiledPred::new(prog, nested)
    }

    fn new_reg(&mut self, prog: &mut Program) -> Reg {
        let r = prog.nregs;
        prog.nregs += 1;
        r
    }

    /// Lower a fused step kernel. With profiling on it gets one profile
    /// row of its own, where the nested plan's operators would have been.
    fn build_kernel(&mut self, shape: &StepKernelShape<'_>) -> StepKernel {
        let ctx = self.mgr.slot(shape.context);
        let stats = self.profile.as_mut().map(|p| {
            let stats: SharedStats = Arc::new(Mutex::new(OpStats::default()));
            p.entries.push(ProfileEntry {
                label: shape.to_string(),
                depth: self.depth,
                stats: stats.clone(),
            });
            stats
        });
        StepKernel::new(shape, ctx, stats)
    }

    fn emit<'e>(
        &mut self,
        e: &'e ScalarExpr,
        prog: &mut Program,
        nested: &mut Vec<NestedEval>,
    ) -> Reg {
        use ScalarExpr as S;
        match e {
            S::Const(c) => {
                let dst = self.new_reg(prog);
                prog.instrs.push(Instr::LoadConst { dst, value: c.to_value() });
                dst
            }
            S::Attr(name) => {
                let slot = self.mgr.slot(name);
                let dst = self.new_reg(prog);
                prog.instrs.push(Instr::LoadSlot { dst, slot });
                dst
            }
            S::Var(name) => {
                let dst = self.new_reg(prog);
                prog.instrs.push(Instr::LoadVar { dst, name: name.clone() });
                dst
            }
            S::And(a, b) => {
                let ra = self.emit(a, prog, nested);
                let jump_at = prog.instrs.len();
                prog.instrs.push(Instr::JumpIfFalse { cond: ra, target: 0 });
                let rb = self.emit(b, prog, nested);
                prog.instrs.push(Instr::Move { dst: ra, src: rb });
                let end = prog.instrs.len();
                prog.instrs[jump_at] = Instr::JumpIfFalse { cond: ra, target: end };
                ra
            }
            S::Or(a, b) => {
                let ra = self.emit(a, prog, nested);
                let jump_at = prog.instrs.len();
                prog.instrs.push(Instr::JumpIfTrue { cond: ra, target: 0 });
                let rb = self.emit(b, prog, nested);
                prog.instrs.push(Instr::Move { dst: ra, src: rb });
                let end = prog.instrs.len();
                prog.instrs[jump_at] = Instr::JumpIfTrue { cond: ra, target: end };
                ra
            }
            S::Not(a) => {
                let ra = self.emit(a, prog, nested);
                let dst = self.new_reg(prog);
                prog.instrs.push(Instr::Not { dst, a: ra });
                dst
            }
            S::Compare { op, mode, lhs, rhs } => {
                // A string-mode compare stringifies its operands itself
                // (borrowing where it can): an explicit string() in front
                // would only allocate.
                let operand = |e: &'e ScalarExpr| match (mode, e) {
                    (CmpMode::Str, S::Convert(algebra::ConvKind::ToString, inner)) => &**inner,
                    _ => e,
                };
                let ra = self.emit(operand(lhs), prog, nested);
                let rb = self.emit(operand(rhs), prog, nested);
                let dst = self.new_reg(prog);
                prog.instrs.push(Instr::Cmp { op: *op, mode: *mode, dst, a: ra, b: rb });
                dst
            }
            S::Arith(op, a, b) => {
                let ra = self.emit(a, prog, nested);
                let rb = self.emit(b, prog, nested);
                let dst = self.new_reg(prog);
                prog.instrs.push(Instr::Arith { op: *op, dst, a: ra, b: rb });
                dst
            }
            S::Neg(a) => {
                let ra = self.emit(a, prog, nested);
                let dst = self.new_reg(prog);
                prog.instrs.push(Instr::Neg { dst, a: ra });
                dst
            }
            S::Convert(kind, a) => {
                let ra = self.emit(a, prog, nested);
                let dst = self.new_reg(prog);
                prog.instrs.push(match kind {
                    algebra::ConvKind::ToNumber => Instr::ToNumber { dst, a: ra },
                    algebra::ConvKind::ToString => Instr::ToString { dst, a: ra },
                    algebra::ConvKind::ToBoolean => Instr::ToBoolean { dst, a: ra },
                });
                dst
            }
            S::StrFn(f, args) => {
                let regs: Vec<Reg> = args.iter().map(|a| self.emit(a, prog, nested)).collect();
                let dst = self.new_reg(prog);
                prog.instrs.push(Instr::StrOp { f: *f, dst, args: regs });
                dst
            }
            S::NumFn(f, a) => {
                let ra = self.emit(a, prog, nested);
                let dst = self.new_reg(prog);
                prog.instrs.push(Instr::NumOp { f: *f, dst, a: ra });
                dst
            }
            S::NodeFn(f, a) => {
                let ra = self.emit(a, prog, nested);
                let dst = self.new_reg(prog);
                prog.instrs.push(Instr::NodeOp { f: *f, dst, a: ra });
                dst
            }
            S::Lang(a, ctx_attr) => {
                let ra = self.emit(a, prog, nested);
                let ctx = self.mgr.slot(ctx_attr);
                let dst = self.new_reg(prog);
                prog.instrs.push(Instr::Lang { dst, a: ra, ctx });
                dst
            }
            S::Deref(a) => {
                let ra = self.emit(a, prog, nested);
                let dst = self.new_reg(prog);
                prog.instrs.push(Instr::Deref { dst, a: ra });
                dst
            }
            S::RootOf(a) => {
                let ra = self.emit(a, prog, nested);
                let dst = self.new_reg(prog);
                prog.instrs.push(Instr::RootOf { dst, a: ra });
                dst
            }
            S::Agg(agg) => {
                let eval = match step_kernel(agg) {
                    Some(shape) => NestedEval::Kernel(self.build_kernel(&shape)),
                    None => {
                        let over = self.mgr.slot(&agg.over);
                        let iter = self.build_iter(&agg.plan);
                        NestedEval::new(iter, over, agg.func, agg.independent)
                    }
                };
                let idx = nested.len();
                nested.push(eval);
                let dst = self.new_reg(prog);
                prog.instrs.push(Instr::EvalNested { dst, idx });
                dst
            }
        }
    }
}
