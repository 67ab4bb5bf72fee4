//! Rule fixture: TL004 and TL008 hits and non-hits among the literal,
//! comment and test-region shapes the front end must tell apart.
//! Nothing in an inner doc comment fires: x == 1.0, thread_rng(), Instant::now()

use std::time::Instant;

/// Plain, raw and byte strings hide their contents.
pub fn strings(x: Option<u8>) -> u8 {
    let _a = "call .unwrap() then panic!(now) at Instant::now()";
    let _b = r#"a "quoted" x.unwrap() panic!("no") thread::spawn"#;
    let _c = b"bytes .expect(\"x\") todo!() 1.0 == 2.0";
    let _d = br##"raw bytes "# .unwrap() "##;
    let _e = "escaped \" quote .unwrap()"; x.unwrap()
}

/// A directive inside a string is no directive.
pub fn string_directive(x: Option<u8>) -> u8 {
    let _s = "// lint: allow(TL004)"; x.unwrap()
}

/// Multi-line strings blank every line they span.
pub fn multi_line(y: Option<&str>) -> usize {
    let s = "first line .unwrap()
        panic!(inside) Instant::now() thread_rng()
        last line";
    let t = r#"raw
        thread::spawn .expect( unreachable!()
    "#.len();
    let u = Some("two
        lines").unwrap();
    s.len() + t + u.len() + y.expect("after the strings")
}

/* outer /* inner x.unwrap() */ still comment panic!() */
/// Code after a nested block comment is code again.
pub fn nested_comments(x: Option<u8>) -> u8 {
    /* open
       x.unwrap() inside
    */ x.unwrap()
}

/// Char literals are not lifetimes and do not open strings.
pub fn chars<'a>(s: &'a str, x: Option<u8>) -> &'a str {
    let _q = '"'; let _r = '\''; let _b = b'"'; x.unwrap();
    let _t = 'x'; let _l: &'static str = "lifetime"; todo!()
}

/// Doc comments never fire: `x.unwrap()` or `panic!("doc")`.
/** Block doc: x.unwrap() unimplemented!() */
pub fn documented_twice() {}

/// Documented above an attribute.
#[inline]
#[must_use]
pub fn doc_above_attribute() -> u8 {
    0
}

/// Documented, but cut off by a blank line.

pub fn doc_cut_off_by_blank_line() {}

/// Documented, with a plain comment line in between.
// an ordinary comment
pub fn doc_then_comment() {}

pub fn undocumented() {}

pub const fn undocumented_const() -> u8 {
    0
}

pub(crate) fn crate_visible_needs_no_doc() {}

/// Panic-family macros at a word boundary only.
pub fn panics(flag: bool) {
    if flag {
        panic!("boom");
    }
    std::unreachable!();
    unimplemented!();
    debug_assert!(flag);
    my_panic_free();
}

/// Trailing and standalone allow directives.
pub fn allowed(x: f32) -> bool {
    let a = x == 1.0; // lint: allow(TL004)
    // lint: allow(TL004)
    if a { return x != 2.0 }
    // lint: allow(TL004)
    // (a comment line between a directive and its code line)

    let b = x == 3.0;
    let c = (x == 4.0) /* lint: allow(TL004) */ && b;
    c && a
}

/// Float comparisons.
pub fn floats(loss: f32, n: usize, pair: ((u8, u8), u8)) -> bool {
    let a = loss == 0.0;
    let b = n == 0;
    let c = (pair.0).1 != pair.1;
    let d = "1.5" == "2.5";
    a && b && c && d
}

#[cfg(test)]
use std::collections::HashMap;

/// The `;` ended the `#[cfg(test)]` item above: this is library code.
pub fn after_cfg_test_use(x: Option<u8>) -> u8 {
    x.unwrap()
}

#[test]
fn top_level_test() {
    Some(1).unwrap();
    panic!("tests may panic");
}

/// Library code again after the test function.
pub fn after_test_fn(x: Option<u8>) -> u8 {
    x.expect("library")
}

#[cfg(test)]
mod tests {
    use super::*;

    pub fn helper(x: Option<u8>) -> u8 {
        let t = Instant::now();
        std::thread::spawn(|| {});
        if 1.0 == 2.0 {}
        x.unwrap()
    }

    #[test]
    fn t() {
        panic!("fine in tests");
    }
}

pub fn after_test_module(x: Option<u8>) -> u8 {
    x.unwrap()
}

/// A test attribute in a nested module ends at the `;` of its own item.
pub mod inner {
    #[cfg(test)]
    use super::*;

    /// Library code after the test-only `use`.
    pub fn lib(x: Option<u8>) -> u8 {
        x.unwrap()
    }
}

/// Documented above a multi-line attribute.
#[cfg_attr(
    feature = "never",
    must_use
)]
pub fn doc_above_multi_line_attribute() -> u8 {
    0
}

/// `.into_iter()` on a hash-typed binding fires TL008; other receivers and
/// a waived call do not.
pub fn hash_order(index: HashMap<String, usize>, v: Vec<u8>) -> usize {
    let seen = std::collections::HashSet::<u8>::new();
    let a: usize = index.into_iter().map(|(_, n)| n).sum();
    let b = seen.into_iter().count(); // lint: allow(TL008)
    a + b + v.into_iter().count()
}
