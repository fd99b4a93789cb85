//! The by-name interpreter the compiled matcher replaced, kept as the
//! reference the tests compare against: every field is resolved by
//! name on every record, every value copied out as a [`FieldValue`],
//! every text compared as a `String`.
#![allow(dead_code)] // each test binary uses its own part

use dpm_filter::{Descriptions, FieldRef, Op, Pattern, Rule, Rules};
use dpm_meter::HEADER_LEN;
use std::fmt;

/// A value copied out of a record field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldValue {
    /// An integer (base-10 field).
    Int(u64),
    /// Raw bytes (base-16 field, i.e. a socket name).
    Bytes(Vec<u8>),
}

impl fmt::Display for FieldValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldValue::Int(v) => FieldRef::Int(*v).fmt(f),
            FieldValue::Bytes(b) => FieldRef::Bytes(b).fmt(f),
        }
    }
}

/// The standard header: field name, offset, length.
const HEADER_LAYOUT: &[(&str, usize, usize)] = &[
    ("size", 0, 4),
    ("machine", 4, 2),
    ("cpuTime", 8, 4),
    ("procTime", 16, 4),
    ("traceType", 20, 4),
];

fn le_int(field: &[u8]) -> u64 {
    let mut v: u64 = 0;
    for (i, b) in field.iter().enumerate().take(8) {
        v |= (*b as u64) << (8 * i);
    }
    v
}

/// A named field of a raw record: the header layout first (`type` is
/// `traceType`), then the first body field of that name.
pub fn field(desc: &Descriptions, record: &[u8], name: &str) -> Option<FieldValue> {
    let hname = if name == "type" { "traceType" } else { name };
    if let Some(&(_, off, len)) = HEADER_LAYOUT.iter().find(|(n, ..)| *n == hname) {
        return record
            .get(off..off + len)
            .map(|b| FieldValue::Int(le_int(b)));
    }
    let event = desc.event(Descriptions::record_type(record)?)?;
    let f = event.fields.iter().find(|f| f.name == name)?;
    let off = HEADER_LEN.saturating_add(f.offset);
    let bytes = record.get(off..off.checked_add(f.len)?)?;
    Some(if f.base == 16 {
        FieldValue::Bytes(bytes.to_vec())
    } else {
        FieldValue::Int(le_int(bytes))
    })
}

/// What the interpreter decided: `None` to reject, else the discard
/// list of the first rule that matched.
pub fn verdict(rules: &Rules, desc: &Descriptions, record: &[u8]) -> Option<Vec<String>> {
    if rules.rules.is_empty() {
        return Some(Vec::new());
    }
    rules.rules.iter().find_map(|r| match_rule(r, desc, record))
}

fn match_rule(rule: &Rule, desc: &Descriptions, record: &[u8]) -> Option<Vec<String>> {
    let mut discards = Vec::new();
    for cond in &rule.conditions {
        let value = lookup(desc, record, &cond.field)?;
        let holds = match &cond.pattern {
            Pattern::Any => matches!(cond.op, Op::Eq),
            Pattern::Int(rhs) => match &value {
                FieldValue::Int(lhs) => compare(cond.op, lhs, rhs),
                FieldValue::Bytes(_) => compare(cond.op, &value.to_string(), &rhs.to_string()),
            },
            Pattern::Prefix(pfx) => {
                value.to_string().starts_with(pfx.as_str()) != (cond.op == Op::Ne)
            }
            Pattern::Field(other) => match (&value, lookup(desc, record, other)) {
                (FieldValue::Int(a), Some(FieldValue::Int(b))) => compare(cond.op, a, &b),
                (_, Some(rhs)) => compare(cond.op, &value.to_string(), &rhs.to_string()),
                (_, None) => compare(cond.op, &value.to_string(), other),
            },
            Pattern::Text(t) => compare(cond.op, &value.to_string(), t),
        };
        if !holds {
            return None;
        }
        if cond.discard {
            discards.push(cond.field.clone());
        }
    }
    Some(discards)
}

/// `size` in rules means `msgLength`.
fn lookup(desc: &Descriptions, record: &[u8], name: &str) -> Option<FieldValue> {
    field(
        desc,
        record,
        if name == "size" { "msgLength" } else { name },
    )
}

fn compare<T: PartialOrd + ?Sized>(op: Op, lhs: &T, rhs: &T) -> bool {
    match op {
        Op::Eq => lhs == rhs,
        Op::Ne => lhs != rhs,
        Op::Lt => lhs < rhs,
        Op::Gt => lhs > rhs,
        Op::Le => lhs <= rhs,
        Op::Ge => lhs >= rhs,
    }
}
