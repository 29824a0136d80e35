//! C source renderer: verified kbpf bytecode → a self-contained
//! `tcp_congestion_ops` struct_ops skeleton.
//!
//! The emitted file has two faces:
//!
//! * **Host-compilable C** (default): typedefs, the `psm_ctx` context
//!   struct, clamping/guarded arithmetic helpers, and the policy function
//!   itself — `static s64 <name>_policy(const struct psm_ctx *c, s64 *m)`
//!   — a direct transliteration of the kbpf bytecode (locals for
//!   registers, `goto` for jumps). Any `cc -c` can build-check it, which
//!   CI does when a compiler is present.
//! * **Kernel scaffolding** (`-DPOLICYSMITH_KERN`): `SEC(".struct_ops")`
//!   registration of a `tcp_congestion_ops`, `ssthresh`/`cong_avoid`
//!   hooks that fill `psm_ctx` from `tcp_sock` fields, and a per-socket
//!   `sk_storage` map holding the scratch slots and history features.
//!   This half targets `clang -target bpf` against `vmlinux.h` and is
//!   `#ifdef`-gated out of the host build.
//!
//! All arithmetic is rendered UB-free: add/sub/mul/neg go through `u64`
//! casts (two's-complement wrap, matching the eBPF target the emitter
//! gated), shifts clamp their amount to `[0, 63]` like the kbpf VM, and
//! division guards zero and `LLONG_MIN / -1` (both unreachable for
//! verified policies — the guards are defense in depth, not semantics).

use policysmith_dsl::Feature;
use policysmith_kbpf::{Insn, Op, Program};
use std::collections::BTreeSet;
use std::fmt::Write;

/// Render a complete struct_ops C file for a verified kbpf program.
///
/// `features` is the context ABI in slot order (from
/// `CtxLayout::features()`); `name` becomes the C identifier prefix and
/// the congestion-control algorithm name (sanitized).
pub fn render_struct_ops(prog: &Program, features: &[Feature], name: &str) -> String {
    let ident = sanitize(name);
    let nslots = features.len().max(1);

    // jump targets need labels; everything else must not get one (dead
    // labels would fail -Werror host builds)
    let mut targets: BTreeSet<usize> = BTreeSet::new();
    for (pc, insn) in prog.insns.iter().enumerate() {
        if insn.op.is_jump() {
            targets.insert(pc + 1 + insn.off as usize);
        }
    }

    // declare only the registers the program touches
    let mut regs: BTreeSet<u8> = BTreeSet::new();
    regs.insert(0);
    let mut uses_map = false;
    for insn in &prog.insns {
        if insn.op.reads_dst() || insn.op.writes_dst() {
            regs.insert(insn.dst);
        }
        if insn.op.reads_src() {
            regs.insert(insn.src);
        }
        uses_map |= matches!(insn.op, Op::LdMap | Op::StMap);
    }

    let mut out = String::new();
    let w = &mut out;
    let _ = writeln!(w, "/* SPDX-License-Identifier: GPL-2.0 */");
    let _ = writeln!(w, "/*");
    let _ = writeln!(w, " * {ident} — congestion-control policy emitted by policysmith-ebpf.");
    let _ = writeln!(w, " *");
    let _ = writeln!(w, " * Generated from verified kbpf bytecode; do not edit by hand.");
    let _ = writeln!(w, " * Plain `cc -c` build-checks the policy function; define");
    let _ = writeln!(w, " * POLICYSMITH_KERN for the BPF struct_ops scaffolding");
    let _ = writeln!(w, " * (clang -O2 -target bpf against vmlinux.h).");
    let _ = writeln!(w, " */");
    let _ = writeln!(w);
    let _ = writeln!(w, "#ifdef POLICYSMITH_KERN");
    let _ = writeln!(w, "#include \"vmlinux.h\"");
    let _ = writeln!(w, "#include <bpf/bpf_helpers.h>");
    let _ = writeln!(w, "#include <bpf/bpf_tracing.h>");
    let _ = writeln!(w, "#else");
    let _ = writeln!(w, "typedef long long s64;");
    let _ = writeln!(w, "typedef unsigned long long u64;");
    let _ = writeln!(w, "#endif");
    let _ = writeln!(w);
    let _ = writeln!(w, "/* context ABI: one s64 per slot, in first-use order */");
    let _ = writeln!(w, "struct psm_ctx {{");
    let _ = writeln!(w, "\ts64 f[{nslots}];");
    for (slot, f) in features.iter().enumerate() {
        let _ =
            writeln!(w, "\t/* f[{slot}] = {} in [{}, {}] */", f.name(), f.range().0, f.range().1);
    }
    let _ = writeln!(w, "}};");
    let _ = writeln!(w);
    let _ = writeln!(w, "/* kbpf shift semantics: amount clamps to [0, 63] */");
    let _ = writeln!(w, "static inline s64 psm_shl(s64 v, s64 a)");
    let _ = writeln!(w, "{{");
    let _ = writeln!(w, "\tif (a < 0) a = 0;");
    let _ = writeln!(w, "\tif (a > 63) a = 63;");
    let _ = writeln!(w, "\treturn (s64)((u64)v << (u64)a);");
    let _ = writeln!(w, "}}");
    let _ = writeln!(w);
    let _ = writeln!(w, "static inline s64 psm_shr(s64 v, s64 a)");
    let _ = writeln!(w, "{{");
    let _ = writeln!(w, "\tif (a < 0) a = 0;");
    let _ = writeln!(w, "\tif (a > 63) a = 63;");
    let _ = writeln!(w, "\treturn v >> a;");
    let _ = writeln!(w, "}}");
    let _ = writeln!(w);
    let _ = writeln!(w, "/* guarded division: the zero and MIN/-1 branches are unreachable");
    let _ = writeln!(w, " * for verified policies but keep the C free of undefined behavior */");
    let _ = writeln!(w, "static inline s64 psm_div(s64 a, s64 b)");
    let _ = writeln!(w, "{{");
    let _ = writeln!(w, "\tif (b == 0) return 0;");
    let _ = writeln!(w, "\tif (b == -1) return (s64)(0ULL - (u64)a);");
    let _ = writeln!(w, "\treturn a / b;");
    let _ = writeln!(w, "}}");
    let _ = writeln!(w);
    let _ = writeln!(w, "static inline s64 psm_rem(s64 a, s64 b)");
    let _ = writeln!(w, "{{");
    let _ = writeln!(w, "\tif (b == 0 || b == -1) return 0;");
    let _ = writeln!(w, "\treturn a % b;");
    let _ = writeln!(w, "}}");
    let _ = writeln!(w);
    let _ = writeln!(w, "/* the policy: a direct transliteration of the verified bytecode */");
    let _ = writeln!(w, "static s64 {ident}_policy(const struct psm_ctx *c, s64 *m)");
    let _ = writeln!(w, "{{");
    let decls: Vec<String> = regs.iter().map(|r| format!("r{r} = 0")).collect();
    let _ = writeln!(w, "\ts64 {};", decls.join(", "));
    if features.is_empty() {
        let _ = writeln!(w, "\t(void)c;");
    }
    if !uses_map {
        let _ = writeln!(w, "\t(void)m;");
    }
    let _ = writeln!(w);
    for (pc, insn) in prog.insns.iter().enumerate() {
        if targets.contains(&pc) {
            let _ = writeln!(w, "L{pc}:");
        }
        let _ = writeln!(w, "\t{}", render_insn(insn, pc));
    }
    let _ = writeln!(w, "}}");
    let _ = writeln!(w);
    let _ = writeln!(w, "#ifndef POLICYSMITH_KERN");
    let _ = writeln!(w, "/* userspace entry point: lets a plain `cc -c` build-check reference");
    let _ = writeln!(w, " * the policy and gives host-side tests a callable symbol */");
    let _ = writeln!(w, "s64 {ident}_decide(const struct psm_ctx *c, s64 *m)");
    let _ = writeln!(w, "{{");
    let _ = writeln!(w, "\treturn {ident}_policy(c, m);");
    let _ = writeln!(w, "}}");
    let _ = writeln!(w, "#endif /* !POLICYSMITH_KERN */");
    let _ = writeln!(w);
    render_kern_section(w, features, &ident);
    out
}

fn render_insn(insn: &Insn, pc: usize) -> String {
    use Op::*;
    let d = insn.dst;
    let s = insn.src;
    let target = pc + 1 + insn.off as usize;
    // immediate vs register second operand, as C text
    let o = if insn.op.reads_src() { format!("r{s}") } else { c_imm(insn.imm) };
    let wrap = |op: char| format!("r{d} = (s64)((u64)r{d} {op} (u64)({o}));");
    match insn.op {
        MovImm | MovReg => format!("r{d} = {o};"),
        AddImm | AddReg => wrap('+'),
        SubImm | SubReg => wrap('-'),
        MulImm | MulReg => wrap('*'),
        DivImm | DivReg => format!("r{d} = psm_div(r{d}, {o});"),
        RemImm | RemReg => format!("r{d} = psm_rem(r{d}, {o});"),
        Neg => format!("r{d} = (s64)(0ULL - (u64)r{d});"),
        LshImm | LshReg => format!("r{d} = psm_shl(r{d}, {o});"),
        RshImm | RshReg => format!("r{d} = psm_shr(r{d}, {o});"),
        Ja => format!("goto L{target};"),
        JeqImm | JeqReg => format!("if (r{d} == {o}) goto L{target};"),
        JneImm | JneReg => format!("if (r{d} != {o}) goto L{target};"),
        JltImm | JltReg => format!("if (r{d} < {o}) goto L{target};"),
        JleImm | JleReg => format!("if (r{d} <= {o}) goto L{target};"),
        JgtImm | JgtReg => format!("if (r{d} > {o}) goto L{target};"),
        JgeImm | JgeReg => format!("if (r{d} >= {o}) goto L{target};"),
        LdCtx => format!("r{d} = c->f[{}];", insn.imm),
        LdMap => format!("r{d} = m[{}];", insn.imm),
        StMap => format!("m[{}] = r{s};", insn.imm),
        Exit => "return r0;".into(),
    }
}

/// A C integer literal for any `i64` (`i64::MIN` has no direct literal).
fn c_imm(v: i64) -> String {
    if v == i64::MIN {
        "(-9223372036854775807LL - 1)".into()
    } else {
        format!("{v}LL")
    }
}

fn sanitize(name: &str) -> String {
    let mut s: String =
        name.chars().map(|c| if c.is_ascii_alphanumeric() || c == '_' { c } else { '_' }).collect();
    if s.is_empty() || s.chars().next().unwrap().is_ascii_digit() {
        s.insert(0, 'p');
    }
    s
}

/// How a feature is sourced inside the kernel hooks: an expression over
/// `tp`/`acked`/`loss`, or a slot in the per-socket state for history
/// features the hooks maintain.
fn kern_feature_expr(f: Feature) -> String {
    use Feature::*;
    match f {
        Cwnd => "(s64)tp->snd_cwnd".into(),
        PrevCwnd => "st->prev_cwnd".into(),
        Ssthresh => "(s64)tp->snd_ssthresh".into(),
        Mss => "(s64)tp->mss_cache".into(),
        SrttUs => "(s64)(tp->srtt_us >> 3)".into(),
        MinRttUs => "(s64)minmax_get(&tp->rtt_min)".into(),
        LastRttUs => "(s64)tp->rack.rtt_us".into(),
        InflightPkts => "(s64)tp->packets_out".into(),
        InflightBytes => "(s64)tp->packets_out * (s64)tp->mss_cache".into(),
        DeliveredBytes => "(s64)tp->delivered * (s64)tp->mss_cache".into(),
        DeliveryRateBps => "(s64)tp->rate_delivered".into(),
        LossEvent => "loss".into(),
        AckedBytes => "(s64)acked * (s64)tp->mss_cache".into(),
        Now => "(s64)(bpf_ktime_get_ns() / 1000)".into(),
        HistCwnd(i) => format!("st->hist_cwnd[{i}]"),
        HistRtt(i) => format!("st->hist_rtt[{i}]"),
        HistQdelay(i) => format!("st->hist_qdelay[{i}]"),
        HistDelivered(i) => format!("st->hist_delivered[{i}]"),
        HistLoss(i) => format!("st->hist_loss[{i}]"),
        // non-cc features never reach Mode::Kernel compilation
        other => format!("0 /* unmapped feature: {} */", other.name()),
    }
}

fn render_kern_section(w: &mut String, features: &[Feature], ident: &str) {
    let hist = features.iter().any(|f| {
        matches!(
            f,
            Feature::HistCwnd(_)
                | Feature::HistRtt(_)
                | Feature::HistQdelay(_)
                | Feature::HistDelivered(_)
                | Feature::HistLoss(_)
                | Feature::PrevCwnd
        )
    });
    // keep the algorithm name within the kernel's 16-byte limit
    let algname: String = ident.chars().take(15).collect();
    let _ = writeln!(w, "#ifdef POLICYSMITH_KERN");
    let _ = writeln!(w);
    let _ = writeln!(w, "char _license[] SEC(\"license\") = \"GPL\";");
    let _ = writeln!(w);
    let _ = writeln!(w, "/* per-socket scratch: kbpf map slots + history features */");
    let _ = writeln!(w, "struct psm_state {{");
    let _ = writeln!(w, "\ts64 m[{}];", policysmith_kbpf::SPILL_SLOTS);
    if hist {
        let _ = writeln!(w, "\ts64 prev_cwnd;");
        let _ = writeln!(w, "\ts64 hist_cwnd[8];");
        let _ = writeln!(w, "\ts64 hist_rtt[8];");
        let _ = writeln!(w, "\ts64 hist_qdelay[8];");
        let _ = writeln!(w, "\ts64 hist_delivered[8];");
        let _ = writeln!(w, "\ts64 hist_loss[8];");
    }
    let _ = writeln!(w, "}};");
    let _ = writeln!(w);
    let _ = writeln!(w, "struct {{");
    let _ = writeln!(w, "\t__uint(type, BPF_MAP_TYPE_SK_STORAGE);");
    let _ = writeln!(w, "\t__uint(map_flags, BPF_F_NO_PREALLOC);");
    let _ = writeln!(w, "\t__type(key, int);");
    let _ = writeln!(w, "\t__type(value, struct psm_state);");
    let _ = writeln!(w, "}} psm_sk_state SEC(\".maps\");");
    let _ = writeln!(w);
    let _ = writeln!(w, "static void psm_fill_ctx(struct psm_ctx *c, const struct tcp_sock *tp,");
    let _ = writeln!(w, "\t\t\t struct psm_state *st, __u32 acked, s64 loss)");
    let _ = writeln!(w, "{{");
    if features.is_empty() {
        let _ = writeln!(w, "\t(void)c; (void)tp; (void)st; (void)acked; (void)loss;");
    }
    for (slot, f) in features.iter().enumerate() {
        let _ = writeln!(w, "\tc->f[{slot}] = {};", kern_feature_expr(*f));
    }
    let _ = writeln!(w, "}}");
    let _ = writeln!(w);
    let _ = writeln!(w, "static s64 psm_decide(struct sock *sk, __u32 acked, s64 loss)");
    let _ = writeln!(w, "{{");
    let _ = writeln!(w, "\tstruct tcp_sock *tp = (struct tcp_sock *)sk;");
    let _ = writeln!(w, "\tstruct psm_state *st;");
    let _ = writeln!(w, "\tstruct psm_ctx c = {{}};");
    let _ = writeln!(w, "\ts64 cwnd;");
    let _ = writeln!(w);
    let _ = writeln!(w, "\tst = bpf_sk_storage_get(&psm_sk_state, sk, 0,");
    let _ = writeln!(w, "\t\t\t\tBPF_SK_STORAGE_GET_F_CREATE);");
    let _ = writeln!(w, "\tif (!st)");
    let _ = writeln!(w, "\t\treturn (s64)tp->snd_cwnd;");
    let _ = writeln!(w, "\tpsm_fill_ctx(&c, tp, st, acked, loss);");
    let _ = writeln!(w, "\tcwnd = {ident}_policy(&c, st->m);");
    let _ = writeln!(w, "\t/* host-side clamp, mirrored in the kernel */");
    let _ = writeln!(w, "\tif (cwnd < 2) cwnd = 2;");
    let _ = writeln!(w, "\tif (cwnd > (1 << 20)) cwnd = 1 << 20;");
    if hist {
        let _ = writeln!(w, "\tst->prev_cwnd = (s64)tp->snd_cwnd;");
    }
    let _ = writeln!(w, "\treturn cwnd;");
    let _ = writeln!(w, "}}");
    let _ = writeln!(w);
    let _ = writeln!(w, "SEC(\"struct_ops\")");
    let _ =
        writeln!(w, "void BPF_PROG({ident}_cong_avoid, struct sock *sk, __u32 ack, __u32 acked)");
    let _ = writeln!(w, "{{");
    let _ = writeln!(w, "\tstruct tcp_sock *tp = (struct tcp_sock *)sk;");
    let _ = writeln!(w);
    let _ = writeln!(w, "\ttp->snd_cwnd = (__u32)psm_decide(sk, acked, 0);");
    let _ = writeln!(w, "}}");
    let _ = writeln!(w);
    let _ = writeln!(w, "SEC(\"struct_ops\")");
    let _ = writeln!(w, "__u32 BPF_PROG({ident}_ssthresh, struct sock *sk)");
    let _ = writeln!(w, "{{");
    let _ = writeln!(w, "\treturn (__u32)psm_decide(sk, 0, 1);");
    let _ = writeln!(w, "}}");
    let _ = writeln!(w);
    let _ = writeln!(w, "SEC(\"struct_ops\")");
    let _ = writeln!(w, "__u32 BPF_PROG({ident}_undo_cwnd, struct sock *sk)");
    let _ = writeln!(w, "{{");
    let _ = writeln!(w, "\tstruct tcp_sock *tp = (struct tcp_sock *)sk;");
    let _ = writeln!(w);
    let _ = writeln!(w, "\treturn tp->snd_cwnd;");
    let _ = writeln!(w, "}}");
    let _ = writeln!(w);
    let _ = writeln!(w, "SEC(\".struct_ops\")");
    let _ = writeln!(w, "struct tcp_congestion_ops {ident}_ops = {{");
    let _ = writeln!(w, "\t.cong_avoid\t= (void *){ident}_cong_avoid,");
    let _ = writeln!(w, "\t.ssthresh\t= (void *){ident}_ssthresh,");
    let _ = writeln!(w, "\t.undo_cwnd\t= (void *){ident}_undo_cwnd,");
    let _ = writeln!(w, "\t.name\t\t= \"{algname}\",");
    let _ = writeln!(w, "}};");
    let _ = writeln!(w);
    let _ = writeln!(w, "#endif /* POLICYSMITH_KERN */");
}

#[cfg(test)]
mod tests {
    use super::*;
    use policysmith_dsl::Mode;
    use policysmith_kbpf::CompiledPolicy;

    fn render(src: &str, name: &str) -> String {
        let p = CompiledPolicy::from_source(src, Mode::Kernel).unwrap();
        render_struct_ops(p.program(), p.layout().features(), name)
    }

    #[test]
    fn renders_a_complete_translation_unit() {
        let c = render("if(loss, max(cwnd >> 1, 2), cwnd + 1)", "aimd");
        assert!(c.contains("static s64 aimd_policy(const struct psm_ctx *c, s64 *m)"));
        assert!(c.contains("struct psm_ctx"));
        assert!(c.contains("return r0;"));
        assert!(c.contains("SEC(\".struct_ops\")"));
        assert!(c.contains(".name\t\t= \"aimd\""));
        // host half must not leak kernel-only identifiers
        let host: String = c.split("#ifdef POLICYSMITH_KERN").take(2).collect();
        assert!(!host.contains("bpf_sk_storage_get"));
    }

    #[test]
    fn labels_only_where_jumps_land() {
        let c = render("if(loss, max(cwnd >> 1, 2), cwnd + 1)", "aimd");
        for line in c.lines() {
            if let Some(rest) = line.strip_prefix('L') {
                let label: usize = rest.trim_end_matches(':').parse().unwrap();
                assert!(c.contains(&format!("goto L{label};")), "dead label L{label}");
            }
        }
    }

    #[test]
    fn division_renders_guarded() {
        let c = render("cwnd + acked / max(mss, 1)", "r8");
        // the policy body itself never emits a bare `/` — only the
        // guarded helper does
        let body = c.split("r8_policy(").nth(1).unwrap();
        let body = &body[..body.find("\n}").unwrap()];
        assert!(body.contains("psm_div("));
        assert!(!body.lines().any(|l| l.contains(" / ") && !l.contains("psm_div")));
    }

    #[test]
    fn identifier_sanitization() {
        let c = render("cwnd + 1", "8-weird name!");
        assert!(c.contains("p8_weird_name__policy"));
    }

    #[test]
    fn min_imm_renders_without_overflow_literal() {
        assert_eq!(c_imm(i64::MIN), "(-9223372036854775807LL - 1)");
        assert_eq!(c_imm(-5), "-5LL");
    }
}
