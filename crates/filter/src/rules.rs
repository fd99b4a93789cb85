//! Selection rules (templates) — what the filter keeps, and what it
//! strips.
//!
//! "The selection rules are stored in another file and are used to
//! select and edit event records. … The conditions that may be used to
//! specify selection criteria in a template are `>`, `<`, `=`, `!=`,
//! `>=`, and `<=`. … A wildcard value which matches any value may be
//! specified … indicated by the character `*`. To reduce the size of
//! the data which is saved in the trace file, any field value may be
//! prefixed with the discard character `#`. If an event record is
//! accepted by the filter, any fields with this value prefix will be
//! discarded." (§3.4, Figs. 3.3–3.4)
//!
//! A record is kept when **any** rule matches (each rule is a
//! template; a template matches when **all** its conditions hold). An
//! empty rule set keeps everything.

use crate::desc::{
    header_ints, header_loc, read_at, Descriptions, EventDesc, FieldRef, HEADER_LEN,
};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt::{self, Write as _};
use std::sync::OnceLock;

/// Comparison operator of a condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `<=`
    Le,
    /// `>=`
    Ge,
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Op::Eq => "=",
            Op::Ne => "!=",
            Op::Lt => "<",
            Op::Gt => ">",
            Op::Le => "<=",
            Op::Ge => ">=",
        })
    }
}

/// Right-hand side of a condition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Pattern {
    /// `*` — matches any value.
    Any,
    /// An integer literal, e.g. `10000`.
    Int(u64),
    /// A decimal prefix pattern, e.g. `1*` (matches `pid=1*`).
    Prefix(String),
    /// Another field's name, e.g. `peerName` in
    /// `sockName=peerName` — a field-to-field comparison.
    Field(String),
    /// Any other literal text, matched against the field's display
    /// form (so `destName=inet:1:1701` works).
    Text(String),
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pattern::Any => f.write_str("*"),
            Pattern::Int(v) => write!(f, "{v}"),
            Pattern::Prefix(p) => write!(f, "{p}*"),
            Pattern::Field(n) => f.write_str(n),
            Pattern::Text(t) => f.write_str(t),
        }
    }
}

/// One condition of a template: `field op pattern`, optionally with
/// the `#` discard prefix on the value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Condition {
    /// Field name (header or body field; `type` is `traceType`).
    pub field: String,
    /// Comparison operator.
    pub op: Op,
    /// Right-hand side.
    pub pattern: Pattern,
    /// Whether the matched field is stripped from the saved record.
    pub discard: bool,
}

impl fmt::Display for Condition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}{}{}",
            self.field,
            self.op,
            if self.discard { "#" } else { "" },
            self.pattern
        )
    }
}

/// One template: all conditions must hold.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Rule {
    /// The conjunctive conditions.
    pub conditions: Vec<Condition>,
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, c) in self.conditions.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

/// A parsed templates file: one rule per line; a record is kept when
/// any rule matches.
#[derive(Debug, Clone, Default)]
pub struct Rules {
    /// The templates, in file order.
    pub rules: Vec<Rule>,
    /// The rules compiled, by the first verdict.
    compiled: OnceLock<Table>,
}

/// Rules are equal when their templates are: the compiled table is a
/// cache.
impl PartialEq for Rules {
    fn eq(&self, other: &Rules) -> bool {
        self.rules == other.rules
    }
}

impl Eq for Rules {}

/// Error parsing a templates file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for RuleParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "templates line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for RuleParseError {}

/// Result of matching a record against the rules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict<'a> {
    /// Discard the record.
    Reject,
    /// Keep the record, stripping the named fields (from `#` values).
    Keep {
        /// Field names to strip from the saved record: the `#` fields
        /// of the first rule that matched, borrowed from the rules.
        discard_fields: Cow<'a, [String]>,
    },
}

impl Rules {
    /// Parses a templates file: one rule per line, conditions
    /// comma-separated, e.g. `machine=0, type=1, pid=21*, size>=512`.
    /// Blank lines and `#`-comment lines (a `#` **starting** the line)
    /// are ignored.
    ///
    /// # Errors
    ///
    /// Returns [`RuleParseError`] naming the offending line.
    pub fn parse(text: &str) -> Result<Rules, RuleParseError> {
        let mut out = Rules::default();
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut conditions = Vec::new();
            for part in line.split(',') {
                let part = part.trim();
                if part.is_empty() {
                    continue;
                }
                conditions.push(parse_condition(part).map_err(|m| RuleParseError {
                    line: lineno,
                    message: m,
                })?);
            }
            if conditions.is_empty() {
                return Err(RuleParseError {
                    line: lineno,
                    message: "empty rule".to_owned(),
                });
            }
            out.rules.push(Rule { conditions });
        }
        Ok(out)
    }

    /// Matches a raw event record. With no rules at all, everything is
    /// kept unedited.
    ///
    /// The rules run compiled against `desc`: the first call compiles
    /// them once per event type and keeps the table, tagged with the
    /// descriptions' content; a call with other descriptions compiles
    /// afresh. So `rules` is not to be edited once matching has begun.
    pub fn verdict<'a>(&'a self, desc: &Descriptions, record: &[u8]) -> Verdict<'a> {
        if self.rules.is_empty() {
            return Verdict::Keep {
                discard_fields: Cow::Borrowed(&[]),
            };
        }
        let table = self.compiled.get_or_init(|| Table::new(&self.rules, desc));
        let hit = if table.fingerprint == desc.fingerprint {
            table.first_match(record)
        } else {
            Table::new(&self.rules, desc).first_match(record)
        };
        match hit {
            Some(rule) => Verdict::Keep {
                discard_fields: Cow::Borrowed(&table.discards[rule]),
            },
            None => Verdict::Reject,
        }
    }
}

/// Parses a single condition like `cpuTime<10000`, `pid=#1*`, or
/// `sockName=peerName`. The operator is the leftmost `!`, `<`, `>` or
/// `=` (with a following `=`: `!=`, `<=`, `>=`), so a value may hold
/// operator characters: `destName=unix:/tmp/a<b`.
fn parse_condition(s: &str) -> Result<Condition, String> {
    let pos = s
        .find(['!', '<', '>', '='])
        .ok_or_else(|| format!("no operator in condition `{s}`"))?;
    let ops = [Op::Ne, Op::Le, Op::Ge, Op::Lt, Op::Gt, Op::Eq].map(|op| (op, op.to_string()));
    let (op, token) = ops
        .into_iter()
        .find(|(_, token)| s[pos..].starts_with(token.as_str()))
        .ok_or_else(|| format!("malformed condition `{s}`"))?;
    let field = s[..pos].trim();
    let mut value = s[pos + token.len()..].trim();
    if field.is_empty() || value.is_empty() {
        return Err(format!("malformed condition `{s}`"));
    }
    let discard = value.starts_with('#');
    if discard {
        value = value[1..].trim();
        if value.is_empty() {
            return Err(format!("discard prefix without value in `{s}`"));
        }
    }
    let pattern = parse_pattern(value);
    if matches!(pattern, Pattern::Prefix(_) | Pattern::Any) && !matches!(op, Op::Eq | Op::Ne) {
        return Err(format!(
            "wildcard patterns only work with = and != in `{s}`"
        ));
    }
    Ok(Condition {
        field: field.to_owned(),
        op,
        pattern,
        discard,
    })
}

fn parse_pattern(value: &str) -> Pattern {
    if value == "*" {
        return Pattern::Any;
    }
    if let Some(stripped) = value.strip_suffix('*') {
        if !stripped.is_empty() && stripped.chars().all(|c| c.is_ascii_digit()) {
            return Pattern::Prefix(stripped.to_owned());
        }
    }
    if let Ok(v) = value.parse::<u64>() {
        return Pattern::Int(v);
    }
    // A bare identifier that looks like a field name is a
    // field-to-field comparison; anything else is literal text.
    let is_ident = value.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
    if is_ident
        && value
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic())
    {
        Pattern::Field(value.to_owned())
    } else {
        Pattern::Text(value.to_owned())
    }
}

/// `(offset from the record start, length, base)` of a field.
type Loc = (usize, usize, u32);

/// Rules compiled against one [`Descriptions`]: for each described
/// trace type, and for all other types, the rules that can match such
/// a record, each condition resolved to where its field lies.
#[derive(Debug, Clone)]
struct Table {
    /// The fingerprint of the descriptions compiled against.
    fingerprint: u64,
    /// The described trace types.
    types: Vec<u32>,
    /// Per described type, then for every other type.
    by_type: Vec<TypeRules>,
    /// Each rule's `#` fields, in condition order.
    discards: Vec<Vec<String>>,
}

/// The rules that can match a record of one type, in file order: each
/// one's index and conditions.
type TypeRules = Vec<(usize, Vec<Cond>)>;

impl Table {
    fn new(rules: &[Rule], desc: &Descriptions) -> Table {
        let events = desc.events();
        let by_type = events.iter().map(|&e| Some(e)).chain([None]).map(|event| {
            let compiled = rules.iter().enumerate();
            compiled
                .filter_map(|(i, rule)| Some((i, compile_rule(rule, event)?)))
                .collect()
        });
        let discards = rules.iter().map(|rule| {
            let fields = rule.conditions.iter().filter(|c| c.discard);
            fields.map(|c| c.field.clone()).collect()
        });
        Table {
            fingerprint: desc.fingerprint,
            types: events.iter().map(|e| e.trace_type).collect(),
            by_type: by_type.collect(),
            discards: discards.collect(),
        }
    }

    /// The index of the first rule `record` matches.
    fn first_match(&self, record: &[u8]) -> Option<usize> {
        let ty = Descriptions::record_type(record);
        let at = self.types.iter().position(|&t| Some(t) == ty);
        let rules = &self.by_type[at.unwrap_or(self.types.len())];
        // A record of a described type holds a header: read it once.
        let head = header_ints(record).unwrap_or_default();
        let hit = rules
            .iter()
            .find(|(_, conds)| conds.iter().all(|c| c.holds(record, &head)));
        hit.map(|&(rule, _)| rule)
    }
}

/// A rule's conditions resolved for records of `event` (`None`: of an
/// undescribed type), or `None` when no such record can match it: a
/// condition names a field they lack, is `*` under an operator other
/// than `=`, or bounds an integer beyond its range.
fn compile_rule(rule: &Rule, event: Option<&EventDesc>) -> Option<Vec<Cond>> {
    let compile = |c: &Condition| {
        let (at, head) = rule_loc(event, &c.field)?;
        let text = |text| Test::Text(Box::new(text));
        let test = match &c.pattern {
            Pattern::Any if c.op == Op::Eq => Test::Any,
            Pattern::Any => return None,
            Pattern::Int(v) if at.2 != 16 => {
                let (lo, hi) = match c.op {
                    Op::Eq | Op::Ne => (*v, *v),
                    Op::Lt => (0, v.checked_sub(1)?),
                    Op::Le => (0, *v),
                    Op::Gt => (v.checked_add(1)?, u64::MAX),
                    Op::Ge => (*v, u64::MAX),
                };
                Test::Int(lo, hi, c.op == Op::Ne)
            }
            Pattern::Int(v) => text(TextTest::Cmp(c.op, None, v.to_string())),
            Pattern::Prefix(p) => text(TextTest::Prefix(c.op == Op::Ne, p.clone())),
            Pattern::Field(name) => {
                let other = rule_loc(event, name).map(|(loc, _)| loc);
                text(TextTest::Cmp(c.op, other, name.clone()))
            }
            Pattern::Text(t) => text(TextTest::Cmp(c.op, None, t.clone())),
        };
        Some(Cond { at, head, test })
    };
    rule.conditions.iter().map(compile).collect()
}

/// Where a rule reads `name` in records of `event` (`None`: of an
/// undescribed type). `size` is `msgLength`; a header name (`type` is
/// `traceType`) is the header's field, whatever the body holds; else
/// the first body field so called, `*Len` bookkeeping included. A
/// header field of a described type comes with its index in the
/// header: such a record holds the whole header.
fn rule_loc(event: Option<&EventDesc>, name: &str) -> Option<(Loc, Option<usize>)> {
    let name = if name == "size" { "msgLength" } else { name };
    if let Some((i, off, len)) = header_loc(name) {
        return Some(((off, len, 10), event.map(|_| i)));
    }
    let f = event?.fields.iter().find(|f| f.name == name)?;
    Some(((HEADER_LEN.saturating_add(f.offset), f.len, f.base), None))
}

/// A condition resolved for one event type: where its field lies and
/// what its value must pass. A record too short to hold the field
/// fails it.
#[derive(Debug, Clone)]
struct Cond {
    at: Loc,
    /// Its index among the header's integers, for a header field of a
    /// described type: read once per record, not at `at`.
    head: Option<usize>,
    test: Test,
}

/// What a condition's value must pass.
#[derive(Debug, Clone)]
enum Test {
    /// An integer field against an integer literal, as the values that
    /// pass: `lo..=hi`, or (`true`: `!=`) all others. A bound nothing
    /// meets (`< 0`, `> u64::MAX`) drops the rule instead.
    Int(u64, u64, bool),
    /// `=*`: any value.
    Any,
    /// A test on the value's text (boxed: the integer tests, which
    /// most records meet, stay small).
    Text(Box<TextTest>),
}

/// A test on a value's text, as its `Display` writes it.
#[derive(Debug, Clone)]
enum TextTest {
    /// Against the field at `Loc`, if the record holds it — two
    /// integers compare as numbers, else their texts — or else against
    /// the text: a text pattern, an integer literal against a name
    /// field, or the name of the other field.
    Cmp(Op, Option<Loc>, String),
    /// Starts with the digits (`true`: `!=`, does not).
    Prefix(bool, String),
}

impl Cond {
    /// Whether `record`, whose header integers are `head`, passes.
    fn holds(&self, record: &[u8], head: &[u64; 5]) -> bool {
        let value = match self.head {
            Some(i) => Some(FieldRef::Int(head[i])),
            None => read_at(record, self.at.0, self.at.1, self.at.2),
        };
        match (&self.test, value) {
            (Test::Int(lo, hi, out), Some(FieldRef::Int(v))) => (*lo..=*hi).contains(&v) != *out,
            (Test::Any, Some(_)) => true,
            (Test::Text(test), Some(v)) => test.holds(v, record),
            // Absent, or past the record's end.
            _ => false,
        }
    }
}

impl TextTest {
    /// Whether `value`, of `record`, passes.
    fn holds(&self, value: FieldRef<'_>, record: &[u8]) -> bool {
        let (op, other, text) = match self {
            TextTest::Prefix(negated, digits) => {
                return text_cmp(value, digits.as_bytes()).1 != *negated
            }
            TextTest::Cmp(op, other, text) => (op, other, text),
        };
        let other = other.and_then(|(off, len, base)| read_at(record, off, len, base));
        op.holds(match (value, other) {
            (FieldRef::Int(lhs), Some(FieldRef::Int(rhs))) => lhs.cmp(&rhs),
            (_, Some(other)) => {
                // The other field's text, written on the stack: every
                // integer, name and byte field of up to 32 bytes fits.
                let mut stack = Stack([0; 64], 0);
                match write!(stack, "{other}") {
                    Ok(()) => text_cmp(value, &stack.0[..stack.1]).0,
                    Err(_) => text_cmp(value, other.to_string().as_bytes()).0,
                }
            }
            (_, None) => text_cmp(value, text.as_bytes()).0,
        })
    }
}

/// Text written into a fixed buffer: `.1` bytes of `.0`, and an error
/// once they would not fit.
struct Stack([u8; 64], usize);

impl fmt::Write for Stack {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        let end = self.1 + s.len();
        let to = self.0.get_mut(self.1..end).ok_or(fmt::Error)?;
        to.copy_from_slice(s.as_bytes());
        self.1 = end;
        Ok(())
    }
}

impl Op {
    /// Whether a comparison that came out `ord` satisfies the operator.
    fn holds(self, ord: Ordering) -> bool {
        use Ordering::{Equal, Greater, Less};
        matches!(
            (self, ord),
            (Op::Eq | Op::Le | Op::Ge, Equal)
                | (Op::Ne | Op::Lt | Op::Le, Less)
                | (Op::Ne | Op::Gt | Op::Ge, Greater)
        )
    }
}

/// How `value`'s text (its `Display`) compares with `rhs`, and whether
/// it starts with `rhs` — found as the text is written, not built.
fn text_cmp(value: FieldRef<'_>, rhs: &[u8]) -> (Ordering, bool) {
    let mut cmp = TextCmp(rhs, 0, Ordering::Equal);
    write!(cmp, "{value}").expect("comparing never fails");
    let TextCmp(_, len, ord) = cmp;
    (
        ord.then(len.cmp(&rhs.len())),
        ord.is_eq() && len >= rhs.len(),
    )
}

/// A writer comparing the text written to it with `.0`: `.1` is the
/// length written, `.2` the first difference over their common length.
struct TextCmp<'a>(&'a [u8], usize, Ordering);

impl fmt::Write for TextCmp<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        let rest = self.0.get(self.1..).unwrap_or_default();
        let n = s.len().min(rest.len());
        self.2 = self.2.then(s.as_bytes()[..n].cmp(&rest[..n]));
        self.1 += s.len();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpm_meter::{
        trace_type, MeterAccept, MeterBody, MeterHeader, MeterMsg, MeterSendMsg, SockName,
    };

    fn record(machine: u16, cpu: u32, body: MeterBody) -> Vec<u8> {
        MeterMsg {
            header: MeterHeader {
                size: 0,
                machine,
                cpu_time: cpu,
                seq: 0,
                proc_time: 0,
                trace_type: body.trace_type(),
            },
            body,
        }
        .encode()
    }

    fn send(
        machine: u16,
        cpu: u32,
        pid: u32,
        sock: u32,
        len: u32,
        dest: Option<SockName>,
    ) -> Vec<u8> {
        record(
            machine,
            cpu,
            MeterBody::Send(MeterSendMsg {
                pid,
                pc: 0,
                sock,
                msg_length: len,
                dest_name: dest,
            }),
        )
    }

    fn desc() -> Descriptions {
        Descriptions::standard()
    }

    /// The first rule of Fig. 3.3: `machine=5, cpuTime<10000`.
    #[test]
    fn figure_3_3_first_rule() {
        let rules = Rules::parse("machine=5, cpuTime<10000\n").unwrap();
        let d = desc();
        let yes = send(5, 9_999, 1, 1, 1, None);
        let wrong_machine = send(4, 9_999, 1, 1, 1, None);
        let too_late = send(5, 10_000, 1, 1, 1, None);
        assert!(matches!(rules.verdict(&d, &yes), Verdict::Keep { .. }));
        assert_eq!(rules.verdict(&d, &wrong_machine), Verdict::Reject);
        assert_eq!(rules.verdict(&d, &too_late), Verdict::Reject);
    }

    /// The second rule of Fig. 3.3:
    /// `machine=0, type=1, sock=4, destName=228320140`.
    #[test]
    fn figure_3_3_second_rule() {
        let dest = SockName::inet(228_320_140 >> 16, (228_320_140 & 0xffff) as u16);
        let dest_str = dest.to_string();
        let rules =
            Rules::parse(&format!("machine=0, type=1, sock=4, destName={dest_str}\n")).unwrap();
        let d = desc();
        let yes = send(0, 1, 9, 4, 100, Some(dest.clone()));
        let no = send(0, 1, 9, 4, 100, Some(SockName::inet(1, 1)));
        assert!(matches!(rules.verdict(&d, &yes), Verdict::Keep { .. }));
        assert_eq!(rules.verdict(&d, &no), Verdict::Reject);
    }

    /// Fig. 3.4: `machine=#*, type=1, pid=1*, size>=512` — wildcard
    /// with discard, prefix pattern, and the `size` alias.
    #[test]
    fn figure_3_4_wildcard_prefix_discard() {
        let rules = Rules::parse("machine=#*, type=1, pid=1*, size>=512\n").unwrap();
        let d = desc();
        let yes = send(3, 1, 1_234, 1, 612, None);
        match rules.verdict(&d, &yes) {
            Verdict::Keep { discard_fields } => {
                assert_eq!(discard_fields, vec!["machine".to_owned()]);
            }
            Verdict::Reject => panic!("record should match"),
        }
        let wrong_pid = send(3, 1, 9_234, 1, 612, None);
        assert_eq!(rules.verdict(&d, &wrong_pid), Verdict::Reject);
        let too_small = send(3, 1, 1_234, 1, 511, None);
        assert_eq!(rules.verdict(&d, &too_small), Verdict::Reject);
    }

    /// Fig. 3.4: `type=8, sockName=peerName` — field-to-field equality
    /// on an accept record.
    #[test]
    fn figure_3_4_field_to_field() {
        let rules = Rules::parse("type=8, sockName=peerName\n").unwrap();
        let d = desc();
        let name = SockName::inet(1, 80);
        let same = record(
            0,
            0,
            MeterBody::Accept(MeterAccept {
                pid: 1,
                pc: 0,
                sock: 1,
                new_sock: 2,
                sock_name: Some(name.clone()),
                peer_name: Some(name.clone()),
            }),
        );
        let different = record(
            0,
            0,
            MeterBody::Accept(MeterAccept {
                pid: 1,
                pc: 0,
                sock: 1,
                new_sock: 2,
                sock_name: Some(name),
                peer_name: Some(SockName::inet(2, 81)),
            }),
        );
        assert!(matches!(rules.verdict(&d, &same), Verdict::Keep { .. }));
        assert_eq!(rules.verdict(&d, &different), Verdict::Reject);
        assert_eq!(record_type_of(&same), trace_type::ACCEPT);
    }

    #[test]
    fn fields_too_long_for_the_stack_compare_by_their_text() {
        // 40 and 36 bytes written in hex: longer than the stack's 64.
        let d = Descriptions::parse(
            "HEADER size machine cpuTime procTime traceType\n\
             ACCEPT 8, both,16,40,16 tail,20,36,16\n",
        )
        .unwrap();
        let accept = record(
            0,
            0,
            MeterBody::Accept(MeterAccept {
                pid: 1,
                pc: 0,
                sock: 1,
                new_sock: 2,
                sock_name: Some(SockName::inet(1, 80)),
                peer_name: Some(SockName::inet(2, 81)),
            }),
        );
        let kept = |rule: &str| {
            let rules = Rules::parse(rule).unwrap();
            matches!(rules.verdict(&d, &accept), Verdict::Keep { .. })
        };
        assert!(kept("both=both"));
        assert!(!kept("both=tail"));
        // "08000000 08000000 …" against "08000000 02000000 …".
        assert!(kept("both>tail") && kept("tail<both"));
    }

    fn record_type_of(r: &[u8]) -> u32 {
        Descriptions::record_type(r).unwrap()
    }

    #[test]
    fn any_rule_matching_keeps_the_record() {
        let rules = Rules::parse("machine=1\nmachine=2\n").unwrap();
        let d = desc();
        assert!(matches!(
            rules.verdict(&d, &send(2, 0, 1, 1, 1, None)),
            Verdict::Keep { .. }
        ));
        assert_eq!(
            rules.verdict(&d, &send(3, 0, 1, 1, 1, None)),
            Verdict::Reject
        );
    }

    #[test]
    fn empty_rules_keep_everything() {
        let rules = Rules::parse("").unwrap();
        assert!(matches!(
            rules.verdict(&desc(), &send(9, 9, 9, 9, 9, None)),
            Verdict::Keep { discard_fields } if discard_fields.is_empty()
        ));
    }

    #[test]
    fn missing_field_fails_the_condition() {
        // `destName` does not exist on a fork record.
        let rules = Rules::parse("destName=*\n").unwrap();
        let fork = record(
            0,
            0,
            MeterBody::Fork(dpm_meter::MeterFork {
                pid: 1,
                pc: 0,
                new_pid: 2,
            }),
        );
        assert_eq!(rules.verdict(&desc(), &fork), Verdict::Reject);
    }

    #[test]
    fn not_equal_and_bounds_operators() {
        let d = desc();
        let r = send(0, 500, 42, 7, 100, None);
        for (rule, expect) in [
            ("pid!=42", false),
            ("pid!=41", true),
            ("cpuTime>=500", true),
            ("cpuTime>500", false),
            ("cpuTime<=500", true),
            ("cpuTime<500", false),
        ] {
            let rules = Rules::parse(rule).unwrap();
            let got = matches!(rules.verdict(&d, &r), Verdict::Keep { .. });
            assert_eq!(got, expect, "rule `{rule}`");
        }
    }

    #[test]
    fn parse_errors() {
        assert!(Rules::parse("pid~3\n").is_err());
        assert!(Rules::parse("=5\n").is_err());
        assert!(Rules::parse("pid=\n").is_err());
        assert!(Rules::parse("pid=#\n").is_err());
        assert!(Rules::parse("pid>1*\n").is_err(), "prefix with ordering op");
        assert!(Rules::parse(",\n").is_err(), "empty rule");
        let err = Rules::parse("ok=1\npid~3\n").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn comment_lines_are_ignored() {
        let rules = Rules::parse("# only sends\ntype=1\n").unwrap();
        assert_eq!(rules.rules.len(), 1);
    }

    /// The operator is the leftmost one, so a value may hold `<`, `!=`
    /// and the like.
    #[test]
    fn conditions_split_at_the_leftmost_operator() {
        for (text, field, op, value) in [
            (
                "destName=unix:/tmp/a<b",
                "destName",
                Op::Eq,
                "unix:/tmp/a<b",
            ),
            ("sockName=unix:/x!=y", "sockName", Op::Eq, "unix:/x!=y"),
            ("pid<=3", "pid", Op::Le, "3"),
            ("pid!=3", "pid", Op::Ne, "3"),
            ("pid>=3", "pid", Op::Ge, "3"),
            ("pid>3", "pid", Op::Gt, "3"),
            ("pid==3", "pid", Op::Eq, "=3"),
        ] {
            let rules = Rules::parse(text).unwrap();
            let c = &rules.rules[0].conditions[0];
            assert_eq!((c.field.as_str(), c.op), (field, op), "{text}");
            assert_eq!(c.pattern.to_string(), value, "{text}");
            assert_eq!(c.to_string(), text);
        }
        assert!(Rules::parse("pid!3").is_err(), "a lone `!` is no operator");
    }

    #[test]
    fn display_round_trip() {
        let text = "machine=#*, type=1, pid=1*, size>=512";
        let rules = Rules::parse(text).unwrap();
        assert_eq!(rules.rules[0].to_string(), text);
    }
}
