//! The `ENTMATCHER_*` switch convention, read in one place: a switch is
//! off when it is unset, empty, whitespace-only or `0`; otherwise its
//! value is the trimmed string (a path, an address, a number, or just
//! "on"). Variables that carry values rather than switches
//! (`ENTMATCHER_THREADS`, `ENTMATCHER_SIMD`, `ENTMATCHER_PROP_*`) parse
//! their own values: there `0` can mean something.

/// The pure rule: `value` with surrounding whitespace trimmed, or `None`
/// when it is absent, or empty or `0` once trimmed.
pub fn switch_value(value: Option<&str>) -> Option<&str> {
    let v = value?.trim();
    (!v.is_empty() && v != "0").then_some(v)
}

/// The environment variable `name` under [`switch_value`]. A value that
/// is not valid Unicode counts as unset.
pub fn switch(name: &str) -> Option<String> {
    switch_value(std::env::var(name).ok().as_deref()).map(str::to_owned)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_values_and_trimmed_on_values() {
        let table: &[(Option<&str>, Option<&str>)] = &[
            (None, None),
            (Some(""), None),
            (Some("0"), None),
            (Some(" "), None),
            (Some("\t \n"), None),
            (Some(" 0 "), None),
            (Some("\t0\n"), None),
            (Some("1"), Some("1")),
            (Some(" 1 "), Some("1")),
            (Some("00"), Some("00")),
            (Some("off"), Some("off")),
            (Some(" trace.json "), Some("trace.json")),
            (Some("127.0.0.1:9464\n"), Some("127.0.0.1:9464")),
        ];
        for &(value, want) in table {
            assert_eq!(switch_value(value), want, "{value:?}");
        }
    }
}
