//! Direct NVM coverage: every instruction class executed through
//! hand-assembled programs (the compiler-emitted paths are covered by the
//! engine tests; these pin the VM semantics themselves).

use std::collections::HashMap;

use algebra::scalar::{CmpMode, NodeFn, NumFn, StrFn};
use algebra::Value;
use xmlstore::{parse_document, ArenaStore, XmlStore};
use xpath_syntax::{ArithOp, CompOp};

use nqe::nvm::{run, Instr, Program};
use nqe::{ResourceGovernor, Runtime};

fn fixture() -> ArenaStore {
    parse_document(r#"<r><x id="a">7</x><y>text</y></r>"#).unwrap()
}

fn eval(store: &ArenaStore, instrs: Vec<Instr>, nregs: usize, result: usize) -> Value {
    let vars = HashMap::new();
    let gov = ResourceGovernor::unlimited();
    let rt = Runtime { store, vars: &vars, gov: &gov };
    let prog = Program { instrs, nregs, result };
    run(&prog, &mut Vec::new(), &rt, &vec![], &mut [])
}

fn s(v: &str) -> Instr {
    Instr::LoadConst { dst: 0, value: Value::Str(v.into()) }
}

#[test]
fn arithmetic_instructions() {
    let st = fixture();
    for (op, expect) in [
        (ArithOp::Add, 5.0),
        (ArithOp::Sub, 1.0),
        (ArithOp::Mul, 6.0),
        (ArithOp::Div, 1.5),
        (ArithOp::Mod, 1.0),
    ] {
        let v = eval(
            &st,
            vec![
                Instr::LoadConst { dst: 0, value: Value::Num(3.0) },
                Instr::LoadConst { dst: 1, value: Value::Num(2.0) },
                Instr::Arith { op, dst: 2, a: 0, b: 1 },
            ],
            3,
            2,
        );
        assert!(matches!(v, Value::Num(n) if n == expect), "{op:?}");
    }
    let v = eval(
        &st,
        vec![
            Instr::LoadConst { dst: 0, value: Value::Num(4.5) },
            Instr::Neg { dst: 1, a: 0 },
        ],
        2,
        1,
    );
    assert!(matches!(v, Value::Num(n) if n == -4.5));
}

#[test]
fn string_instructions() {
    let st = fixture();
    let cases: Vec<(StrFn, Vec<&str>, Value)> = vec![
        (StrFn::Concat, vec!["a", "b", "c"], Value::Str("abc".into())),
        (StrFn::Contains, vec!["hello", "ell"], Value::Bool(true)),
        (StrFn::StartsWith, vec!["hello", "he"], Value::Bool(true)),
        (StrFn::SubstringBefore, vec!["a-b", "-"], Value::Str("a".into())),
        (StrFn::SubstringAfter, vec!["a-b", "-"], Value::Str("b".into())),
        (StrFn::StringLength, vec!["abcd"], Value::Num(4.0)),
        (StrFn::NormalizeSpace, vec![" a  b "], Value::Str("a b".into())),
        (StrFn::Translate, vec!["bar", "abc", "ABC"], Value::Str("BAr".into())),
    ];
    for (f, args, expect) in cases {
        let mut instrs = Vec::new();
        let regs: Vec<usize> = (0..args.len()).collect();
        for (i, a) in args.iter().enumerate() {
            instrs.push(Instr::LoadConst { dst: i, value: Value::Str((*a).into()) });
        }
        let dst = args.len();
        instrs.push(Instr::StrOp { f, dst, args: regs });
        let v = eval(&st, instrs, dst + 1, dst);
        match (&v, &expect) {
            (Value::Str(a), Value::Str(b)) => assert_eq!(a, b, "{f:?}"),
            (Value::Bool(a), Value::Bool(b)) => assert_eq!(a, b, "{f:?}"),
            (Value::Num(a), Value::Num(b)) => assert_eq!(a, b, "{f:?}"),
            other => panic!("{f:?}: {other:?}"),
        }
    }
    // substring with 3 args.
    let v = eval(
        &fixture(),
        vec![
            Instr::LoadConst { dst: 0, value: Value::Str("12345".into()) },
            Instr::LoadConst { dst: 1, value: Value::Num(2.0) },
            Instr::LoadConst { dst: 2, value: Value::Num(3.0) },
            Instr::StrOp { f: StrFn::Substring, dst: 3, args: vec![0, 1, 2] },
        ],
        4,
        3,
    );
    assert!(matches!(v, Value::Str(x) if &*x == "234"));
}

#[test]
fn numeric_function_instructions() {
    let st = fixture();
    for (f, input, expect) in [
        (NumFn::Floor, 2.7, 2.0),
        (NumFn::Ceiling, 2.1, 3.0),
        (NumFn::Round, 2.5, 3.0),
        (NumFn::Round, -2.5, -2.0),
    ] {
        let v = eval(
            &st,
            vec![
                Instr::LoadConst { dst: 0, value: Value::Num(input) },
                Instr::NumOp { f, dst: 1, a: 0 },
            ],
            2,
            1,
        );
        assert!(matches!(v, Value::Num(n) if n == expect), "{f:?}({input})");
    }
}

#[test]
fn node_and_conversion_instructions() {
    let st = fixture();
    let x = {
        let r = st.first_child(st.root()).unwrap();
        st.first_child(r).unwrap()
    };
    let vars = HashMap::new();
    let gov = ResourceGovernor::unlimited();
    let rt = Runtime { store: &st, vars: &vars, gov: &gov };
    let tuple = vec![Value::Node(x)];
    let prog = Program {
        instrs: vec![
            Instr::LoadSlot { dst: 0, slot: 0 },
            Instr::NodeOp { f: NodeFn::Name, dst: 1, a: 0 },
        ],
        nregs: 2,
        result: 1,
    };
    assert!(
        matches!(run(&prog, &mut Vec::new(), &rt, &tuple, &mut []), Value::Str(s) if &*s == "x")
    );
    // Conversions chain: node → string → number → boolean.
    let prog = Program {
        instrs: vec![
            Instr::LoadSlot { dst: 0, slot: 0 },
            Instr::ToString { dst: 1, a: 0 },
            Instr::ToNumber { dst: 2, a: 1 },
            Instr::ToBoolean { dst: 3, a: 2 },
        ],
        nregs: 4,
        result: 3,
    };
    assert!(matches!(run(&prog, &mut Vec::new(), &rt, &tuple, &mut []), Value::Bool(true)));
    // NamespaceUri is always empty (verbatim names).
    let prog = Program {
        instrs: vec![
            Instr::LoadSlot { dst: 0, slot: 0 },
            Instr::NodeOp { f: NodeFn::NamespaceUri, dst: 1, a: 0 },
        ],
        nregs: 2,
        result: 1,
    };
    assert!(
        matches!(run(&prog, &mut Vec::new(), &rt, &tuple, &mut []), Value::Str(s) if s.is_empty())
    );
}

#[test]
fn variable_and_move_instructions() {
    let st = fixture();
    let mut vars = HashMap::new();
    vars.insert("v".to_owned(), Value::Num(9.0));
    let gov = ResourceGovernor::unlimited();
    let rt = Runtime { store: &st, vars: &vars, gov: &gov };
    let prog = Program {
        instrs: vec![
            Instr::LoadVar { dst: 0, name: "v".into() },
            Instr::Move { dst: 1, src: 0 },
        ],
        nregs: 2,
        result: 1,
    };
    assert!(
        matches!(run(&prog, &mut Vec::new(), &rt, &vec![], &mut []), Value::Num(n) if n == 9.0)
    );
    // Unbound variables load Null.
    let prog = Program {
        instrs: vec![Instr::LoadVar { dst: 0, name: "missing".into() }],
        nregs: 1,
        result: 0,
    };
    assert!(run(&prog, &mut Vec::new(), &rt, &vec![], &mut []).is_null());
}

#[test]
fn comparison_modes() {
    let st = fixture();
    // Str mode, relational falls back to numeric comparison.
    let v = eval(
        &st,
        vec![
            s("10"),
            Instr::LoadConst { dst: 1, value: Value::Str("9".into()) },
            Instr::Cmp { op: CompOp::Gt, mode: CmpMode::Str, dst: 2, a: 0, b: 1 },
        ],
        3,
        2,
    );
    assert!(matches!(v, Value::Bool(true)), "'10' > '9' numerically");
    // Bool mode equality.
    let v = eval(
        &st,
        vec![
            Instr::LoadConst { dst: 0, value: Value::Bool(true) },
            Instr::LoadConst { dst: 1, value: Value::Num(3.0) },
            Instr::Cmp { op: CompOp::Eq, mode: CmpMode::Bool, dst: 2, a: 0, b: 1 },
        ],
        3,
        2,
    );
    assert!(matches!(v, Value::Bool(true)), "true = boolean(3)");
}

#[test]
fn jumps_skip_instructions() {
    let st = fixture();
    // JumpIfTrue skips the overwrite.
    let v = eval(
        &st,
        vec![
            Instr::LoadConst { dst: 0, value: Value::Num(1.0) },
            Instr::JumpIfTrue { cond: 0, target: 3 },
            Instr::LoadConst { dst: 0, value: Value::Num(99.0) },
        ],
        1,
        0,
    );
    assert!(matches!(v, Value::Num(n) if n == 1.0));
}
