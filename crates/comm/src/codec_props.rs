//! The property battery every wire codec in the workspace is held to,
//! written once. Test-only: it expands in the caller's `#[cfg(test)]`
//! module against the caller's `proptest` dev-dependency, and lives in
//! this crate because every crate with a codec depends on it.

/// Hold one codec to roundtrip, totality, truncation and corruption.
///
/// `codec_props!(name: strategy, encode, decode, rejects_prefixes_below
/// = N, every_byte_matters = B)` expands to a module `name` of four
/// property tests over values `v` drawn from `strategy`, with `encode:
/// Fn(&T) -> impl AsRef<[u8]>` and `decode: Fn(&[u8]) -> Result<T, _>`:
///
/// * `roundtrip` — `decode(encode(v)) == Ok(v)`;
/// * `decode_is_total` — arbitrary bytes decode to `Ok` or `Err`, never
///   a panic (bodies arrive off real sockets through a fault shim);
/// * `truncation` — no strict prefix of an encoding panics or decodes
///   back to `v`, and none shorter than `N` bytes decodes at all. Pass
///   `usize::MAX` for a self-delimiting codec, the fixed header's
///   length for one whose last field is "the rest";
/// * `corruption` — one flipped byte never panics; with `B` it is also
///   never invisible (`Err`, or a value `!= v`). `B` is false only for
///   codecs that read a flag as `byte != 0`.
#[doc(hidden)]
#[macro_export]
macro_rules! codec_props {
    (
        $(#[$meta:meta])*
        $name:ident: $strategy:expr, $encode:expr, $decode:expr,
        rejects_prefixes_below = $fixed:expr, every_byte_matters = $strict:expr $(,)?
    ) => {
        $(#[$meta])*
        #[allow(unused_imports)] // the caller may already glob-import proptest
        mod $name {
            use super::*;
            use proptest::prelude::*;

            proptest! {
                #[test]
                fn roundtrip(v in $strategy) {
                    let full = ($encode)(&v);
                    let full: &[u8] = full.as_ref();
                    prop_assert_eq!(($decode)(full).ok(), Some(v));
                }

                #[test]
                fn decode_is_total(raw in proptest::collection::vec(any::<u8>(), 0..300)) {
                    let _ = ($decode)(&raw[..]);
                }

                #[test]
                fn truncation(v in $strategy, cut in any::<usize>()) {
                    let full = ($encode)(&v);
                    let full: &[u8] = full.as_ref();
                    prop_assume!(!full.is_empty());
                    let cut = cut % full.len();
                    if let Ok(short) = ($decode)(&full[..cut]) {
                        prop_assert!(cut >= $fixed, "a {cut}-byte prefix decoded: {short:?}");
                        prop_assert!(short != v, "truncation to {cut} bytes is invisible");
                    }
                }

                #[test]
                fn corruption(v in $strategy, at in any::<usize>(), flip in 1u8..=255) {
                    let full = ($encode)(&v);
                    let full: &[u8] = full.as_ref();
                    prop_assume!(!full.is_empty());
                    let mut raw = full.to_vec();
                    let at = at % raw.len();
                    raw[at] ^= flip;
                    if let Ok(other) = ($decode)(&raw[..]) {
                        prop_assert!(!$strict || other != v, "flipping byte {at} is invisible");
                    }
                }
            }
        }
    };
}
