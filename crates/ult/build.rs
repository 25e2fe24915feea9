//! Names the one target predicate `src/ctx` is split on: `chant_native_ctx`
//! is set where there is an asm context switch (x86-64 and AArch64 Linux);
//! everywhere else a user-level thread is carried by an OS thread.

fn main() {
    println!("cargo:rerun-if-changed=build.rs");
    println!("cargo:rustc-check-cfg=cfg(chant_native_ctx)");
    let var = |k: &str| std::env::var(k).unwrap_or_default();
    let arch = var("CARGO_CFG_TARGET_ARCH");
    if var("CARGO_CFG_TARGET_OS") == "linux" && (arch == "x86_64" || arch == "aarch64") {
        println!("cargo:rustc-cfg=chant_native_ctx");
    }
}
