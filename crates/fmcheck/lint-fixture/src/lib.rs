//! Every item below breaks exactly one enforced rule on purpose; the
//! comment above each names the lint that must reject it.

/// `clippy::unwrap_used`
pub fn unwrap_used(x: Option<u32>) -> u32 {
    x.unwrap()
}

/// `clippy::expect_used`
pub fn expect_used(x: Option<u32>) -> u32 {
    x.expect("present")
}

/// `clippy::panic`
pub fn panics() {
    panic!("library code must return a typed error");
}

/// `clippy::todo`
pub fn todo() {
    todo!()
}

/// `clippy::unimplemented`
pub fn unimplemented() {
    unimplemented!()
}

/// `clippy::disallowed_methods` (wall clock, from the root `clippy.toml`)
pub fn disallowed_methods() -> std::time::Instant {
    std::time::Instant::now()
}

/// `clippy::disallowed_types` (hash-order iteration, from the root
/// `clippy.toml`)
pub fn disallowed_types() -> usize {
    std::collections::HashSet::<u32>::new().len()
}

// `missing_docs`
pub fn missing_docs() {}

/// `unsafe_code` and `clippy::undocumented_unsafe_blocks`
pub fn unsafe_code() -> u8 {
    let x = 1u8;
    let p = &x as *const u8;
    unsafe { *p }
}

/// `clippy::allow_attributes_without_reason`
#[allow(dead_code)]
pub fn allow_attributes_without_reason() {}

/// `unfulfilled_lint_expectations`
#[expect(clippy::unwrap_used, reason = "nothing here unwraps")]
pub fn unfulfilled_lint_expectations() {}

/// `unknown_lints`
#[expect(clippy::no_such_lint, reason = "the lint does not exist")]
pub fn unknown_lints() {}
