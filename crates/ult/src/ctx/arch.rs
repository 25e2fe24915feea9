//! The register-level switch, one `global_asm!` routine per architecture.
//!
//! `chant_ult_ctx_switch(save, load)` is an ordinary C-ABI function from
//! the compiler's point of view: it may clobber every caller-saved
//! register, so the compiler has already spilled whatever it needs. The
//! routine therefore saves **only the callee-saved registers and the
//! stack pointer** — pushes them on the current stack, stores the
//! resulting stack pointer through `save`, loads the stack pointer found
//! through `load`, pops the same set from there and returns *on the
//! other stack*. It never enters the kernel, touches no signal mask and
//! no floating-point control state (Rust code never changes MXCSR / the
//! x87 control word / FPCR; foreign code that does must restore them
//! before its thread next yields).
//!
//! A context that has never run has a frame laid out by [`init_stack`]
//! as if it had been suspended inside the switch: popping it loads the
//! entry function and its argument into two callee-saved registers and
//! "returns" into `chant_ult_ctx_boot`, which moves the argument into
//! place and calls the entry. The entry never returns (it leaves by a
//! final switch); the trap after the call is unreachable. Neither
//! routine carries unwind tables, so a backtrace ends at the boot stub —
//! and nothing ever unwinds *into* it, because the entry is an
//! `extern "C"` function (Rust aborts rather than unwind out of one).

/// The entry a fresh context boots into. Never returns.
pub(super) type Entry = extern "C" fn(arg: *const ()) -> !;

extern "C" {
    /// Save the running context's callee-saved registers on its stack and
    /// its stack pointer in `*save`; resume the context whose stack
    /// pointer is in `*load`. Returns when something switches back.
    ///
    /// # Safety
    /// `*load` must hold a stack pointer stored by this routine or by
    /// [`init_stack`], for a context that is not running anywhere and
    /// whose stack is mapped; `save` must be writable and stay so until
    /// the switch has happened. The caller must be prepared to resume on
    /// a different OS thread than it left on.
    pub(super) fn chant_ult_ctx_switch(save: *mut usize, load: *const usize);
    fn chant_ult_ctx_boot();
}

#[cfg(target_arch = "x86_64")]
core::arch::global_asm!(
    ".text",
    ".p2align 4",
    ".globl chant_ult_ctx_switch",
    ".hidden chant_ult_ctx_switch",
    ".type chant_ult_ctx_switch,@function",
    "chant_ult_ctx_switch:",
    // System V: rdi = save, rsi = load. Callee-saved: rbx rbp r12-r15.
    "    push rbp",
    "    push rbx",
    "    push r12",
    "    push r13",
    "    push r14",
    "    push r15",
    "    mov [rdi], rsp",
    "    mov rsp, [rsi]",
    "    pop r15",
    "    pop r14",
    "    pop r13",
    "    pop r12",
    "    pop rbx",
    "    pop rbp",
    "    ret",
    ".size chant_ult_ctx_switch, .-chant_ult_ctx_switch",
    ".p2align 4",
    ".globl chant_ult_ctx_boot",
    ".hidden chant_ult_ctx_boot",
    ".type chant_ult_ctx_boot,@function",
    "chant_ult_ctx_boot:",
    // First resume of a context: r12 = argument, r13 = entry.
    "    mov rdi, r12",
    "    call r13",
    "    ud2",
    ".size chant_ult_ctx_boot, .-chant_ult_ctx_boot",
);

/// Words [`init_stack`] lays down: six registers and a return address,
/// plus two spare words that keep the stack 16-byte aligned at the boot
/// stub's `call`.
#[cfg(target_arch = "x86_64")]
const FRAME_WORDS: usize = 9;

#[cfg(target_arch = "aarch64")]
core::arch::global_asm!(
    ".text",
    ".p2align 4",
    ".globl chant_ult_ctx_switch",
    ".hidden chant_ult_ctx_switch",
    ".type chant_ult_ctx_switch,%function",
    "chant_ult_ctx_switch:",
    // AAPCS64: x0 = save, x1 = load. Callee-saved: x19-x28, x29 (fp),
    // x30 (lr) and the low halves of v8-v15.
    "    sub sp, sp, #0xa0",
    "    stp x19, x20, [sp, #0x00]",
    "    stp x21, x22, [sp, #0x10]",
    "    stp x23, x24, [sp, #0x20]",
    "    stp x25, x26, [sp, #0x30]",
    "    stp x27, x28, [sp, #0x40]",
    "    stp x29, x30, [sp, #0x50]",
    "    stp d8,  d9,  [sp, #0x60]",
    "    stp d10, d11, [sp, #0x70]",
    "    stp d12, d13, [sp, #0x80]",
    "    stp d14, d15, [sp, #0x90]",
    "    mov x9, sp",
    "    str x9, [x0]",
    "    ldr x9, [x1]",
    "    mov sp, x9",
    "    ldp x19, x20, [sp, #0x00]",
    "    ldp x21, x22, [sp, #0x10]",
    "    ldp x23, x24, [sp, #0x20]",
    "    ldp x25, x26, [sp, #0x30]",
    "    ldp x27, x28, [sp, #0x40]",
    "    ldp x29, x30, [sp, #0x50]",
    "    ldp d8,  d9,  [sp, #0x60]",
    "    ldp d10, d11, [sp, #0x70]",
    "    ldp d12, d13, [sp, #0x80]",
    "    ldp d14, d15, [sp, #0x90]",
    "    add sp, sp, #0xa0",
    "    ret",
    ".size chant_ult_ctx_switch, .-chant_ult_ctx_switch",
    ".p2align 4",
    ".globl chant_ult_ctx_boot",
    ".hidden chant_ult_ctx_boot",
    ".type chant_ult_ctx_boot,%function",
    "chant_ult_ctx_boot:",
    // First resume of a context: x19 = argument, x20 = entry.
    "    mov x0, x19",
    "    blr x20",
    "    brk #0x1",
    ".size chant_ult_ctx_boot, .-chant_ult_ctx_boot",
);

/// Words [`init_stack`] lays down: the routine's 0xa0-byte save area.
#[cfg(target_arch = "aarch64")]
const FRAME_WORDS: usize = 20;

/// Lay down, just below `top`, the frame `chant_ult_ctx_switch` expects
/// to pop for a context that has never run, and return the stack pointer
/// to store as that context's saved one. Resuming it calls `entry(arg)`
/// on this stack with the ABI's alignment.
///
/// # Safety
/// `top` must be 16-byte aligned and the `FRAME_WORDS` words below it
/// writable and owned by the caller (the top of a fresh [`super::stack::Stack`]).
pub(super) unsafe fn init_stack(top: *mut u8, entry: Entry, arg: *const ()) -> usize {
    debug_assert_eq!(top as usize % 16, 0);
    let boot = chant_ult_ctx_boot as unsafe extern "C" fn() as usize;
    // SAFETY (both blocks): the caller guarantees `FRAME_WORDS` writable
    // words below `top`; every index written is below `FRAME_WORDS`.
    let sp = unsafe { top.cast::<usize>().sub(FRAME_WORDS) };
    #[cfg(target_arch = "x86_64")]
    unsafe {
        // Pop order: r15 r14 r13 r12 rbx rbp, then `ret`. After the `ret`
        // rsp = top - 16, so the stub's `call` leaves rsp + 8 a multiple
        // of 16 at the entry's first instruction, as the ABI requires.
        for i in 0..FRAME_WORDS {
            sp.add(i).write(0);
        }
        sp.add(2).write(entry as usize); // r13
        sp.add(3).write(arg as usize); // r12
        sp.add(6).write(boot); // return address; rbp = 0 ends frame chains
    }
    #[cfg(target_arch = "aarch64")]
    unsafe {
        // After the restore sp = top (16-aligned); x29 = 0 ends frame chains.
        for i in 0..FRAME_WORDS {
            sp.add(i).write(0);
        }
        sp.add(0).write(arg as usize); // x19
        sp.add(1).write(entry as usize); // x20
        sp.add(11).write(boot); // x30
    }
    sp as usize
}
