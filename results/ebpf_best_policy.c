/* SPDX-License-Identifier: GPL-2.0 */
/*
 * policysmith_best — congestion-control policy emitted by policysmith-ebpf.
 *
 * Generated from verified kbpf bytecode; do not edit by hand.
 * Plain `cc -c` build-checks the policy function; define
 * POLICYSMITH_KERN for the BPF struct_ops scaffolding
 * (clang -O2 -target bpf against vmlinux.h).
 */

#ifdef POLICYSMITH_KERN
#include "vmlinux.h"
#include <bpf/bpf_helpers.h>
#include <bpf/bpf_tracing.h>
#else
typedef long long s64;
typedef unsigned long long u64;
#endif

/* context ABI: one s64 per slot, in first-use order */
struct psm_ctx {
	s64 f[8];
	/* f[0] = srtt in [1, 4294967296] */
	/* f[1] = min_rtt in [1, 4294967296] */
	/* f[2] = cwnd in [1, 16777216] */
	/* f[3] = ssthresh in [1, 16777216] */
	/* f[4] = loss in [0, 1] */
	/* f[5] = acked in [0, 4294967296] */
	/* f[6] = mss in [1, 65535] */
	/* f[7] = delivery_rate in [0, 1125899906842624] */
};

/* kbpf shift semantics: amount clamps to [0, 63] */
static inline s64 psm_shl(s64 v, s64 a)
{
	if (a < 0) a = 0;
	if (a > 63) a = 63;
	return (s64)((u64)v << (u64)a);
}

static inline s64 psm_shr(s64 v, s64 a)
{
	if (a < 0) a = 0;
	if (a > 63) a = 63;
	return v >> a;
}

/* guarded division: the zero and MIN/-1 branches are unreachable
 * for verified policies but keep the C free of undefined behavior */
static inline s64 psm_div(s64 a, s64 b)
{
	if (b == 0) return 0;
	if (b == -1) return (s64)(0ULL - (u64)a);
	return a / b;
}

static inline s64 psm_rem(s64 a, s64 b)
{
	if (b == 0 || b == -1) return 0;
	return a % b;
}

/* the policy: a direct transliteration of the verified bytecode */
static s64 policysmith_best_policy(const struct psm_ctx *c, s64 *m)
{
	s64 r0 = 0, r1 = 0, r2 = 0;
	(void)m;

	r0 = c->f[0];
	r1 = c->f[1];
	r1 = (s64)((u64)r1 + (u64)(7052LL));
	if (r0 <= r1) goto L48;
	r0 = c->f[2];
	r1 = c->f[3];
	if (r0 >= r1) goto L36;
	r0 = c->f[2];
	r1 = c->f[3];
	if (r0 >= r1) goto L24;
	r0 = c->f[4];
	if (r0 == 0LL) goto L16;
	r0 = c->f[4];
	if (r0 >= 1LL) goto L15;
	r0 = 1LL;
L15:
	goto L23;
L16:
	r0 = c->f[2];
	r1 = c->f[5];
	r2 = c->f[6];
	r1 = psm_div(r1, r2);
	if (r1 >= 1LL) goto L22;
	r1 = 1LL;
L22:
	r0 = (s64)((u64)r0 + (u64)(r1));
L23:
	goto L35;
L24:
	r0 = c->f[7];
	r0 = psm_div(r0, 8LL);
	r0 = psm_div(r0, 1000000LL);
	r1 = c->f[1];
	r1 = (s64)((u64)r1 * (u64)(12LL));
	r0 = (s64)((u64)r0 * (u64)(r1));
	r1 = c->f[6];
	r1 = (s64)((u64)r1 * (u64)(10LL));
	r0 = psm_div(r0, r1);
	if (r0 >= 4LL) goto L35;
	r0 = 4LL;
L35:
	goto L47;
L36:
	r0 = c->f[7];
	r0 = psm_div(r0, 8LL);
	r0 = psm_div(r0, 1000000LL);
	r1 = c->f[1];
	r1 = (s64)((u64)r1 * (u64)(12LL));
	r0 = (s64)((u64)r0 * (u64)(r1));
	r1 = c->f[6];
	r1 = (s64)((u64)r1 * (u64)(10LL));
	r0 = psm_div(r0, r1);
	if (r0 >= 4LL) goto L47;
	r0 = 4LL;
L47:
	goto L59;
L48:
	r0 = c->f[0];
	r1 = c->f[1];
	r1 = (s64)((u64)r1 + (u64)(24288LL));
	if (r0 <= r1) goto L57;
	r0 = c->f[2];
	r0 = (s64)((u64)r0 - (u64)(1LL));
	if (r0 >= 2LL) goto L56;
	r0 = 2LL;
L56:
	goto L59;
L57:
	r0 = c->f[2];
	r0 = (s64)((u64)r0 + (u64)(1LL));
L59:
	return r0;
}

#ifndef POLICYSMITH_KERN
/* userspace entry point: lets a plain `cc -c` build-check reference
 * the policy and gives host-side tests a callable symbol */
s64 policysmith_best_decide(const struct psm_ctx *c, s64 *m)
{
	return policysmith_best_policy(c, m);
}
#endif /* !POLICYSMITH_KERN */

#ifdef POLICYSMITH_KERN

char _license[] SEC("license") = "GPL";

/* per-socket scratch: kbpf map slots + history features */
struct psm_state {
	s64 m[64];
};

struct {
	__uint(type, BPF_MAP_TYPE_SK_STORAGE);
	__uint(map_flags, BPF_F_NO_PREALLOC);
	__type(key, int);
	__type(value, struct psm_state);
} psm_sk_state SEC(".maps");

static void psm_fill_ctx(struct psm_ctx *c, const struct tcp_sock *tp,
			 struct psm_state *st, __u32 acked, s64 loss)
{
	c->f[0] = (s64)(tp->srtt_us >> 3);
	c->f[1] = (s64)minmax_get(&tp->rtt_min);
	c->f[2] = (s64)tp->snd_cwnd;
	c->f[3] = (s64)tp->snd_ssthresh;
	c->f[4] = loss;
	c->f[5] = (s64)acked * (s64)tp->mss_cache;
	c->f[6] = (s64)tp->mss_cache;
	c->f[7] = (s64)tp->rate_delivered;
}

static s64 psm_decide(struct sock *sk, __u32 acked, s64 loss)
{
	struct tcp_sock *tp = (struct tcp_sock *)sk;
	struct psm_state *st;
	struct psm_ctx c = {};
	s64 cwnd;

	st = bpf_sk_storage_get(&psm_sk_state, sk, 0,
				BPF_SK_STORAGE_GET_F_CREATE);
	if (!st)
		return (s64)tp->snd_cwnd;
	psm_fill_ctx(&c, tp, st, acked, loss);
	cwnd = policysmith_best_policy(&c, st->m);
	/* host-side clamp, mirrored in the kernel */
	if (cwnd < 2) cwnd = 2;
	if (cwnd > (1 << 20)) cwnd = 1 << 20;
	return cwnd;
}

SEC("struct_ops")
void BPF_PROG(policysmith_best_cong_avoid, struct sock *sk, __u32 ack, __u32 acked)
{
	struct tcp_sock *tp = (struct tcp_sock *)sk;

	tp->snd_cwnd = (__u32)psm_decide(sk, acked, 0);
}

SEC("struct_ops")
__u32 BPF_PROG(policysmith_best_ssthresh, struct sock *sk)
{
	return (__u32)psm_decide(sk, 0, 1);
}

SEC("struct_ops")
__u32 BPF_PROG(policysmith_best_undo_cwnd, struct sock *sk)
{
	struct tcp_sock *tp = (struct tcp_sock *)sk;

	return tp->snd_cwnd;
}

SEC(".struct_ops")
struct tcp_congestion_ops policysmith_best_ops = {
	.cong_avoid	= (void *)policysmith_best_cong_avoid,
	.ssthresh	= (void *)policysmith_best_ssthresh,
	.undo_cwnd	= (void *)policysmith_best_undo_cwnd,
	.name		= "policysmith_bes",
};

#endif /* POLICYSMITH_KERN */
