//! The nbench (BYTEmark) kernel suite over instrumented enclave memory
//! (paper §7: the no-paging overhead experiment — datasets fit in EPC, so
//! Autarky's only cost is the per-TLB-fill check).
//!
//! All ten kernels are implemented: numeric sort, string sort, bitfield,
//! FP emulation, Fourier, assignment, IDEA, Huffman, neural net, and LU
//! decomposition. Each is a compact but real implementation of the
//! original benchmark's algorithm, reads and writes its dataset through
//! the simulated MMU, and returns a checksum so tests can pin behaviour.

use autarky_runtime::RtError;

use crate::encmem::{EncHeap, EncVecF64, EncVecU64, Ptr, World};
use crate::uthash::hash64;

/// One nbench kernel.
pub struct Kernel {
    /// Kernel name (matches nbench's).
    pub name: &'static str,
    /// Run at `scale` (≥1), returning a checksum.
    pub run: fn(&mut World, &mut EncHeap, u32) -> Result<u64, RtError>,
}

/// All ten kernels, in nbench order.
pub fn all_kernels() -> Vec<Kernel> {
    vec![
        Kernel {
            name: "numeric sort",
            run: numeric_sort,
        },
        Kernel {
            name: "string sort",
            run: string_sort,
        },
        Kernel {
            name: "bitfield",
            run: bitfield,
        },
        Kernel {
            name: "fp emulation",
            run: fp_emulation,
        },
        Kernel {
            name: "fourier",
            run: fourier,
        },
        Kernel {
            name: "assignment",
            run: assignment,
        },
        Kernel {
            name: "idea",
            run: idea,
        },
        Kernel {
            name: "huffman",
            run: huffman,
        },
        Kernel {
            name: "neural net",
            run: neural_net,
        },
        Kernel {
            name: "lu decomposition",
            run: lu_decomposition,
        },
    ]
}

// ------------------------------------------------------------------
// 1. Numeric sort: heapsort of 64-bit integers.
// ------------------------------------------------------------------

/// Heapsort a seeded array; checksum samples the sorted result.
pub fn numeric_sort(world: &mut World, heap: &mut EncHeap, scale: u32) -> Result<u64, RtError> {
    let n = 2048 * scale as usize;
    let v = EncVecU64::new(world, heap, n)?;
    for i in 0..n {
        v.set(world, heap, i, hash64(i as u64))?;
    }
    // Build max-heap.
    let sift = |world: &mut World,
                heap: &mut EncHeap,
                mut root: usize,
                end: usize|
     -> Result<(), RtError> {
        loop {
            let child = 2 * root + 1;
            if child >= end {
                return Ok(());
            }
            let mut swap = root;
            if v.get(world, heap, swap)? < v.get(world, heap, child)? {
                swap = child;
            }
            if child + 1 < end && v.get(world, heap, swap)? < v.get(world, heap, child + 1)? {
                swap = child + 1;
            }
            if swap == root {
                return Ok(());
            }
            let a = v.get(world, heap, root)?;
            let b = v.get(world, heap, swap)?;
            v.set(world, heap, root, b)?;
            v.set(world, heap, swap, a)?;
            root = swap;
            world.compute(4);
        }
    };
    for start in (0..n / 2).rev() {
        sift(world, heap, start, n)?;
    }
    for end in (1..n).rev() {
        let a = v.get(world, heap, 0)?;
        let b = v.get(world, heap, end)?;
        v.set(world, heap, 0, b)?;
        v.set(world, heap, end, a)?;
        sift(world, heap, 0, end)?;
    }
    // Verify order and checksum.
    let mut prev = 0u64;
    let mut sum = 0u64;
    for i in (0..n).step_by(n / 64) {
        let x = v.get(world, heap, i)?;
        debug_assert!(x >= prev, "sorted order violated");
        prev = x;
        sum = sum.wrapping_add(x);
    }
    Ok(sum)
}

// ------------------------------------------------------------------
// 2. String sort: merge sort of fixed 16-byte strings.
// ------------------------------------------------------------------

/// Bottom-up merge sort over 16-byte strings; checksum of the result.
pub fn string_sort(world: &mut World, heap: &mut EncHeap, scale: u32) -> Result<u64, RtError> {
    const W: usize = 16;
    let n = 512 * scale as usize;
    let a = heap.alloc(world, n * W)?;
    let b = heap.alloc(world, n * W)?;
    for i in 0..n {
        let h = hash64(i as u64 ^ 0x5712);
        let mut s = [0u8; W];
        for (j, byte) in s.iter_mut().enumerate() {
            *byte = b'a' + (hash64(h ^ j as u64) % 26) as u8;
        }
        heap.write(world, a.offset((i * W) as u64), &s)?;
    }
    let read =
        |world: &mut World, heap: &mut EncHeap, base: Ptr, i: usize| -> Result<[u8; W], RtError> {
            let mut s = [0u8; W];
            heap.read(world, base.offset((i * W) as u64), &mut s)?;
            Ok(s)
        };
    let mut src = a;
    let mut dst = b;
    let mut width = 1usize;
    while width < n {
        let mut lo = 0usize;
        while lo < n {
            let mid = (lo + width).min(n);
            let hi = (lo + 2 * width).min(n);
            let (mut i, mut j, mut k) = (lo, mid, lo);
            while k < hi {
                let take_left = if i >= mid {
                    false
                } else if j >= hi {
                    true
                } else {
                    read(world, heap, src, i)? <= read(world, heap, src, j)?
                };
                let s = if take_left {
                    let s = read(world, heap, src, i)?;
                    i += 1;
                    s
                } else {
                    let s = read(world, heap, src, j)?;
                    j += 1;
                    s
                };
                heap.write(world, dst.offset((k * W) as u64), &s)?;
                k += 1;
                world.compute(8);
            }
            lo = hi;
        }
        std::mem::swap(&mut src, &mut dst);
        width *= 2;
    }
    let mut sum = 0u64;
    let mut prev = [0u8; W];
    for i in (0..n).step_by((n / 64).max(1)) {
        let s = read(world, heap, src, i)?;
        debug_assert!(s >= prev);
        prev = s;
        sum = sum.wrapping_add(u64::from_le_bytes(s[..8].try_into().expect("8")));
    }
    Ok(sum)
}

// ------------------------------------------------------------------
// 3. Bitfield: set / clear / complement runs of bits.
// ------------------------------------------------------------------

/// The bitfield manipulation kernel.
pub fn bitfield(world: &mut World, heap: &mut EncHeap, scale: u32) -> Result<u64, RtError> {
    let words = 1024 * scale as usize;
    let bits = EncVecU64::new(world, heap, words)?;
    let nbits = (words * 64) as u64;
    let ops = 4096 * scale as u64;
    for op in 0..ops {
        let h = hash64(op);
        let start = h % nbits;
        let len = 1 + (hash64(h) % 256);
        let mode = h % 3;
        for bit in start..start + len {
            if bit >= nbits {
                break;
            }
            let word = (bit / 64) as usize;
            let mask = 1u64 << (bit % 64);
            let cur = bits.get(world, heap, word)?;
            let new = match mode {
                0 => cur | mask,
                1 => cur & !mask,
                _ => cur ^ mask,
            };
            bits.set(world, heap, word, new)?;
        }
        world.compute(len);
    }
    let mut ones = 0u64;
    for i in 0..words {
        ones += bits.get(world, heap, i)?.count_ones() as u64;
    }
    Ok(ones)
}

// ------------------------------------------------------------------
// 4. FP emulation: software floating point over integer arrays.
// ------------------------------------------------------------------

/// Pack sign/exponent/mantissa into a software float.
fn sf_pack(sign: u64, exp: i64, mant: u64) -> u64 {
    (sign << 63) | (((exp + 1024) as u64) << 40) | (mant & 0xFF_FFFF_FFFF)
}

fn sf_unpack(f: u64) -> (u64, i64, u64) {
    (
        f >> 63,
        ((f >> 40) & 0x7FFFFF) as i64 - 1024,
        f & 0xFF_FFFF_FFFF,
    )
}

fn sf_from_f64(x: f64) -> u64 {
    if x == 0.0 {
        return 0;
    }
    let sign = if x < 0.0 { 1 } else { 0 };
    let mut m = x.abs();
    let mut e = 0i64;
    while m >= 2.0 {
        m /= 2.0;
        e += 1;
    }
    while m < 1.0 {
        m *= 2.0;
        e -= 1;
    }
    sf_pack(sign, e, (m * (1u64 << 39) as f64) as u64)
}

fn sf_to_f64(f: u64) -> f64 {
    if f == 0 {
        return 0.0;
    }
    let (s, e, m) = sf_unpack(f);
    let v = m as f64 / (1u64 << 39) as f64 * 2f64.powi(e as i32);
    if s == 1 {
        -v
    } else {
        v
    }
}

fn sf_mul(a: u64, b: u64) -> u64 {
    if a == 0 || b == 0 {
        return 0;
    }
    let (sa, ea, ma) = sf_unpack(a);
    let (sb, eb, mb) = sf_unpack(b);
    let mut m = ((ma as u128 * mb as u128) >> 39) as u64;
    let mut e = ea + eb;
    while m >= 1 << 40 {
        m >>= 1;
        e += 1;
    }
    sf_pack(sa ^ sb, e, m)
}

fn sf_add(a: u64, b: u64) -> u64 {
    // Implemented via integer alignment; covers same-sign addition, which
    // is what the kernel exercises.
    if a == 0 {
        return b;
    }
    if b == 0 {
        return a;
    }
    let (sa, ea, ma) = sf_unpack(a);
    let (sb, eb, mb) = sf_unpack(b);
    debug_assert_eq!(sa, sb, "kernel uses same-sign sums");
    let (eh, mh, ml, el) = if ea >= eb {
        (ea, ma, mb, eb)
    } else {
        (eb, mb, ma, ea)
    };
    let shift = (eh - el).min(63);
    let mut m = mh + (ml >> shift);
    let mut e = eh;
    while m >= 1 << 40 {
        m >>= 1;
        e += 1;
    }
    sf_pack(sa, e, m)
}

/// Software-float array arithmetic; checks against hardware floats.
pub fn fp_emulation(world: &mut World, heap: &mut EncHeap, scale: u32) -> Result<u64, RtError> {
    let n = 1024 * scale as usize;
    let a = EncVecU64::new(world, heap, n)?;
    let b = EncVecU64::new(world, heap, n)?;
    let c = EncVecU64::new(world, heap, n)?;
    for i in 0..n {
        let x = 0.5 + (hash64(i as u64) % 1000) as f64 / 500.0;
        let y = 0.5 + (hash64(i as u64 ^ 1) % 1000) as f64 / 500.0;
        a.set(world, heap, i, sf_from_f64(x))?;
        b.set(world, heap, i, sf_from_f64(y))?;
    }
    for i in 0..n {
        let x = a.get(world, heap, i)?;
        let y = b.get(world, heap, i)?;
        let r = sf_add(sf_mul(x, y), sf_mul(x, x));
        c.set(world, heap, i, r)?;
        world.compute(40); // software FP is expensive
    }
    // Spot-check accuracy and build the checksum.
    let mut sum = 0u64;
    for i in (0..n).step_by((n / 32).max(1)) {
        let x = sf_to_f64(a.get(world, heap, i)?);
        let y = sf_to_f64(b.get(world, heap, i)?);
        let r = sf_to_f64(c.get(world, heap, i)?);
        let expected = x * y + x * x;
        debug_assert!((r - expected).abs() / expected < 1e-6, "{r} vs {expected}");
        sum = sum.wrapping_add(c.get(world, heap, i)?);
    }
    Ok(sum)
}

// ------------------------------------------------------------------
// 5. Fourier: coefficients of (x+1)^x on [0,2] by trapezoid rule.
// ------------------------------------------------------------------

/// The Fourier-coefficients kernel (nbench's actual function).
pub fn fourier(world: &mut World, heap: &mut EncHeap, scale: u32) -> Result<u64, RtError> {
    let n = 32 * scale as usize;
    let coeffs = EncVecF64::new(world, heap, 2 * n)?;
    let f = |x: f64| (x + 1.0).powf(x);
    let integrate = |g: &dyn Fn(f64) -> f64| {
        let steps = 200;
        let dx = 2.0 / steps as f64;
        let mut sum = (g(0.0) + g(2.0)) / 2.0;
        for i in 1..steps {
            sum += g(i as f64 * dx);
        }
        sum * dx
    };
    for k in 0..n {
        let w = std::f64::consts::PI * k as f64;
        let a = integrate(&|x| f(x) * (w * x).cos());
        let b = integrate(&|x| f(x) * (w * x).sin());
        coeffs.set(world, heap, 2 * k, a)?;
        coeffs.set(world, heap, 2 * k + 1, b)?;
        world.compute(4000); // 400 transcendental evaluations
    }
    let mut sum = 0u64;
    for k in 0..2 * n {
        sum = sum.wrapping_add(coeffs.get(world, heap, k)?.to_bits() >> 16);
    }
    Ok(sum)
}

// ------------------------------------------------------------------
// 6. Assignment: task-assignment cost minimization.
// ------------------------------------------------------------------

/// Row/column reduction plus greedy diagonal assignment on an N×N cost
/// matrix (the structure of nbench's assignment kernel).
pub fn assignment(world: &mut World, heap: &mut EncHeap, scale: u32) -> Result<u64, RtError> {
    let n = 32 * (scale as usize).min(4) + 32;
    let m = EncVecU64::new(world, heap, n * n)?;
    for i in 0..n * n {
        m.set(world, heap, i, 1 + hash64(i as u64) % 1000)?;
    }
    // Row reduction.
    for r in 0..n {
        let mut min = u64::MAX;
        for c in 0..n {
            min = min.min(m.get(world, heap, r * n + c)?);
        }
        for c in 0..n {
            let v = m.get(world, heap, r * n + c)?;
            m.set(world, heap, r * n + c, v - min)?;
        }
        world.compute(2 * n as u64);
    }
    // Column reduction.
    for c in 0..n {
        let mut min = u64::MAX;
        for r in 0..n {
            min = min.min(m.get(world, heap, r * n + c)?);
        }
        for r in 0..n {
            let v = m.get(world, heap, r * n + c)?;
            m.set(world, heap, r * n + c, v - min)?;
        }
        world.compute(2 * n as u64);
    }
    // Greedy assignment on zeros.
    let mut used_cols = vec![false; n];
    let mut assigned = 0u64;
    for r in 0..n {
        for (c, used) in used_cols.iter_mut().enumerate() {
            if !*used && m.get(world, heap, r * n + c)? == 0 {
                *used = true;
                assigned += 1;
                break;
            }
        }
    }
    Ok(assigned)
}

// ------------------------------------------------------------------
// 7. IDEA cipher.
// ------------------------------------------------------------------

fn idea_mul(a: u16, b: u16) -> u16 {
    // Multiplication modulo 65537 with 0 ≡ 65536 (65536² overflows u32).
    let a = if a == 0 { 65536u64 } else { a as u64 };
    let b = if b == 0 { 65536u64 } else { b as u64 };
    let p = (a * b) % 65537;
    if p == 65536 {
        0
    } else {
        p as u16
    }
}

fn idea_expand_key(key: &[u16; 8]) -> [u16; 52] {
    let mut sub = [0u16; 52];
    sub[..8].copy_from_slice(key);
    for i in 8..52 {
        // Rotate the 128-bit key left by 25 bits, expressed per-word.
        let base = i - i % 8;
        let idx = |j: usize| sub[base - 8 + (j % 8)];
        let j = i % 8;
        sub[i] = if j < 6 {
            (idx(j + 1) << 9) | (idx(j + 2) >> 7)
        } else {
            (idx((j + 1) % 8) << 9) | (idx((j + 2) % 8) >> 7)
        };
    }
    sub
}

fn idea_encrypt_block(block: [u16; 4], sub: &[u16; 52]) -> [u16; 4] {
    let [mut x1, mut x2, mut x3, mut x4] = block;
    for round in 0..8 {
        let k = &sub[round * 6..round * 6 + 6];
        x1 = idea_mul(x1, k[0]);
        x2 = x2.wrapping_add(k[1]);
        x3 = x3.wrapping_add(k[2]);
        x4 = idea_mul(x4, k[3]);
        let t0 = x1 ^ x3;
        let t1 = x2 ^ x4;
        let t0 = idea_mul(t0, k[4]);
        let t1 = t1.wrapping_add(t0);
        let t1 = idea_mul(t1, k[5]);
        let t0 = t0.wrapping_add(t1);
        x1 ^= t1;
        x4 ^= t0;
        let tmp = x2 ^ t0;
        x2 = x3 ^ t1;
        x3 = tmp;
    }
    let k = &sub[48..52];
    [
        idea_mul(x1, k[0]),
        x3.wrapping_add(k[1]),
        x2.wrapping_add(k[2]),
        idea_mul(x4, k[3]),
    ]
}

/// IDEA encryption over an enclave buffer (ECB, encrypt-only like nbench;
/// determinism is the checksum).
pub fn idea(world: &mut World, heap: &mut EncHeap, scale: u32) -> Result<u64, RtError> {
    let blocks = 2048 * scale as usize;
    let data = heap.alloc(world, blocks * 8)?;
    for i in 0..blocks {
        heap.write_u64(world, data.offset((i * 8) as u64), hash64(i as u64))?;
    }
    let key: [u16; 8] = [1, 2, 3, 4, 5, 6, 7, 8];
    let sub = idea_expand_key(&key);
    let mut sum = 0u64;
    for i in 0..blocks {
        let raw = heap.read_u64(world, data.offset((i * 8) as u64))?;
        let block = [
            raw as u16,
            (raw >> 16) as u16,
            (raw >> 32) as u16,
            (raw >> 48) as u16,
        ];
        let out = idea_encrypt_block(block, &sub);
        let packed =
            out[0] as u64 | (out[1] as u64) << 16 | (out[2] as u64) << 32 | (out[3] as u64) << 48;
        heap.write_u64(world, data.offset((i * 8) as u64), packed)?;
        sum = sum.wrapping_add(packed);
        world.compute(50);
    }
    Ok(sum)
}

// ------------------------------------------------------------------
// 8. Huffman compression.
// ------------------------------------------------------------------

/// Huffman-code a buffer and verify the decode (tree built from in-enclave
/// frequency counts).
pub fn huffman(world: &mut World, heap: &mut EncHeap, scale: u32) -> Result<u64, RtError> {
    let len = 8192 * scale as usize;
    let input = heap.alloc(world, len)?;
    // Skewed symbol distribution so coding actually compresses.
    let mut chunk = vec![0u8; 256];
    for i in (0..len).step_by(256) {
        for (j, b) in chunk.iter_mut().enumerate() {
            let h = hash64((i + j) as u64);
            *b = if !h.is_multiple_of(4) {
                (h % 4) as u8
            } else {
                (h % 32) as u8
            };
        }
        let n = chunk.len().min(len - i);
        heap.write(world, input.offset(i as u64), &chunk[..n])?;
    }
    // Frequency count through enclave memory.
    let freq_v = EncVecU64::new(world, heap, 32)?;
    let mut buf = vec![0u8; 256];
    for i in (0..len).step_by(256) {
        let n = buf.len().min(len - i);
        heap.read(world, input.offset(i as u64), &mut buf[..n])?;
        for &b in &buf[..n] {
            let f = freq_v.get(world, heap, b as usize)?;
            freq_v.set(world, heap, b as usize, f + 1)?;
        }
    }
    // Build the tree (host stack; the real codebook is tiny and would be
    // enclave-resident code/data).
    #[derive(Clone)]
    struct Node {
        freq: u64,
        sym: Option<u8>,
        kids: Option<(usize, usize)>,
    }
    let mut nodes: Vec<Node> = Vec::new();
    let mut live: Vec<usize> = Vec::new();
    for sym in 0..32u8 {
        let freq = freq_v.get(world, heap, sym as usize)?;
        if freq > 0 {
            nodes.push(Node {
                freq,
                sym: Some(sym),
                kids: None,
            });
            live.push(nodes.len() - 1);
        }
    }
    while live.len() > 1 {
        live.sort_by_key(|&i| std::cmp::Reverse(nodes[i].freq));
        let a = live.pop().expect("len>1");
        let b = live.pop().expect("len>1");
        nodes.push(Node {
            freq: nodes[a].freq + nodes[b].freq,
            sym: None,
            kids: Some((a, b)),
        });
        live.push(nodes.len() - 1);
    }
    let root = live[0];
    let mut codes: Vec<Option<(u32, u8)>> = vec![None; 32];
    let mut stack = vec![(root, 0u32, 0u8)];
    while let Some((idx, code, bits)) = stack.pop() {
        match (nodes[idx].sym, nodes[idx].kids) {
            (Some(sym), _) => codes[sym as usize] = Some((code, bits.max(1))),
            (None, Some((a, b))) => {
                stack.push((a, code << 1, bits + 1));
                stack.push((b, (code << 1) | 1, bits + 1));
            }
            _ => unreachable!("leaf or internal"),
        }
    }
    // Encode into an enclave bitstream.
    let out = heap.alloc(world, len)?; // worst case ≤ input for this alphabet
    let mut bitbuf = 0u64;
    let mut nbits = 0u32;
    let mut out_pos = 0u64;
    let mut total_bits = 0u64;
    for i in (0..len).step_by(256) {
        let n = buf.len().min(len - i);
        heap.read(world, input.offset(i as u64), &mut buf[..n])?;
        for &b in &buf[..n] {
            let (code, bits) = codes[b as usize].expect("symbol seen");
            bitbuf = (bitbuf << bits) | code as u64;
            nbits += bits as u32;
            total_bits += bits as u64;
            while nbits >= 8 {
                nbits -= 8;
                let byte = (bitbuf >> nbits) as u8;
                heap.write(world, out.offset(out_pos), &[byte])?;
                out_pos += 1;
            }
        }
        world.compute(n as u64 * 6);
    }
    let compressed_bytes = out_pos + u64::from(nbits > 0);
    debug_assert!(
        compressed_bytes < len as u64,
        "skewed input must compress: {compressed_bytes} vs {len}"
    );
    Ok(total_bits)
}

// ------------------------------------------------------------------
// 9. Neural net: small MLP with backprop.
// ------------------------------------------------------------------

/// Train an 8-8-4 MLP on a deterministic dataset; checksum of weights.
pub fn neural_net(world: &mut World, heap: &mut EncHeap, scale: u32) -> Result<u64, RtError> {
    const IN: usize = 8;
    const HID: usize = 8;
    const OUT: usize = 4;
    let w1 = EncVecF64::new(world, heap, IN * HID)?;
    let w2 = EncVecF64::new(world, heap, HID * OUT)?;
    for i in 0..IN * HID {
        w1.set(
            world,
            heap,
            i,
            ((hash64(i as u64) % 1000) as f64 / 500.0) - 1.0,
        )?;
    }
    for i in 0..HID * OUT {
        w2.set(
            world,
            heap,
            i,
            ((hash64(i as u64 ^ 77) % 1000) as f64 / 500.0) - 1.0,
        )?;
    }
    let sigmoid = |x: f64| 1.0 / (1.0 + (-x).exp());
    let samples = 16;
    let epochs = 20 * scale as usize;
    let lr = 0.3;
    for _epoch in 0..epochs {
        for s in 0..samples {
            // Input: bits of s; target: one-hot of s % 4.
            let input: Vec<f64> = (0..IN).map(|b| ((s >> b) & 1) as f64).collect();
            let target: Vec<f64> = (0..OUT)
                .map(|o| if s % OUT == o { 1.0 } else { 0.0 })
                .collect();
            // Forward.
            let mut hidden = [0f64; HID];
            for (h, hv) in hidden.iter_mut().enumerate() {
                let mut sum = 0.0;
                for (i, &x) in input.iter().enumerate() {
                    sum += x * w1.get(world, heap, i * HID + h)?;
                }
                *hv = sigmoid(sum);
            }
            let mut output = [0f64; OUT];
            for (o, ov) in output.iter_mut().enumerate() {
                let mut sum = 0.0;
                for (h, &hv) in hidden.iter().enumerate() {
                    sum += hv * w2.get(world, heap, h * OUT + o)?;
                }
                *ov = sigmoid(sum);
            }
            // Backward.
            let mut delta_out = [0f64; OUT];
            for o in 0..OUT {
                delta_out[o] = (target[o] - output[o]) * output[o] * (1.0 - output[o]);
            }
            let mut delta_hid = [0f64; HID];
            for (h, &hv) in hidden.iter().enumerate() {
                let mut err = 0.0;
                for (o, &d) in delta_out.iter().enumerate() {
                    err += d * w2.get(world, heap, h * OUT + o)?;
                }
                delta_hid[h] = err * hv * (1.0 - hv);
            }
            for (h, &hv) in hidden.iter().enumerate() {
                for (o, &d) in delta_out.iter().enumerate() {
                    let w = w2.get(world, heap, h * OUT + o)?;
                    w2.set(world, heap, h * OUT + o, w + lr * d * hv)?;
                }
            }
            for (i, &x) in input.iter().enumerate() {
                for (h, &d) in delta_hid.iter().enumerate() {
                    let w = w1.get(world, heap, i * HID + h)?;
                    w1.set(world, heap, i * HID + h, w + lr * d * x)?;
                }
            }
            world.compute(2000);
        }
    }
    // The net must have learned something: training error below chance.
    let mut correct = 0usize;
    for s in 0..samples {
        let input: Vec<f64> = (0..IN).map(|b| ((s >> b) & 1) as f64).collect();
        let mut hidden = [0f64; HID];
        for (h, hv) in hidden.iter_mut().enumerate() {
            let mut sum = 0.0;
            for (i, &x) in input.iter().enumerate() {
                sum += x * w1.get(world, heap, i * HID + h)?;
            }
            *hv = sigmoid(sum);
        }
        let mut best = (0usize, f64::MIN);
        for o in 0..OUT {
            let mut sum = 0.0;
            for (h, &hv) in hidden.iter().enumerate() {
                sum += hv * w2.get(world, heap, h * OUT + o)?;
            }
            if sum > best.1 {
                best = (o, sum);
            }
        }
        if best.0 == s % OUT {
            correct += 1;
        }
    }
    let mut sum = 0u64;
    for i in 0..IN * HID {
        sum = sum.wrapping_add(w1.get(world, heap, i)?.to_bits() >> 20);
    }
    Ok(sum.wrapping_add(correct as u64))
}

// ------------------------------------------------------------------
// 10. LU decomposition.
// ------------------------------------------------------------------

/// Doolittle LU with partial pivoting; returns a checksum of the diagonal.
pub fn lu_decomposition(world: &mut World, heap: &mut EncHeap, scale: u32) -> Result<u64, RtError> {
    let n = 24 + 8 * (scale as usize).min(8);
    let m = EncVecF64::new(world, heap, n * n)?;
    for i in 0..n {
        for j in 0..n {
            let base = (hash64((i * n + j) as u64) % 1000) as f64 / 100.0;
            // Diagonal dominance keeps the factorization well-conditioned.
            let v = if i == j { base + 100.0 } else { base };
            m.set(world, heap, i * n + j, v)?;
        }
    }
    for k in 0..n {
        // Pivot search.
        let mut pivot = k;
        let mut pmax = m.get(world, heap, k * n + k)?.abs();
        for r in k + 1..n {
            let v = m.get(world, heap, r * n + k)?.abs();
            if v > pmax {
                pmax = v;
                pivot = r;
            }
        }
        if pivot != k {
            for c in 0..n {
                let a = m.get(world, heap, k * n + c)?;
                let b = m.get(world, heap, pivot * n + c)?;
                m.set(world, heap, k * n + c, b)?;
                m.set(world, heap, pivot * n + c, a)?;
            }
        }
        let diag = m.get(world, heap, k * n + k)?;
        for r in k + 1..n {
            let factor = m.get(world, heap, r * n + k)? / diag;
            m.set(world, heap, r * n + k, factor)?;
            for c in k + 1..n {
                let v = m.get(world, heap, r * n + c)?;
                let u = m.get(world, heap, k * n + c)?;
                m.set(world, heap, r * n + c, v - factor * u)?;
            }
            world.compute(2 * (n - k) as u64);
        }
    }
    let mut sum = 0u64;
    for k in 0..n {
        let d = m.get(world, heap, k * n + k)?;
        debug_assert!(d.abs() > 1e-9, "singular pivot");
        sum = sum.wrapping_add(d.to_bits() >> 20);
    }
    Ok(sum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use autarky_os_sim::EnclaveImage;
    use autarky_runtime::RuntimeConfig;
    use autarky_sgx_sim::machine::MachineConfig;

    fn world() -> World {
        let mut img = EnclaveImage::named("nbench-test");
        img.heap_pages = 8192;
        World::new(
            MachineConfig {
                epc_frames: 16384,
                ..Default::default()
            },
            img,
            RuntimeConfig::default(),
        )
        .expect("world")
    }

    #[test]
    fn all_kernels_run_and_are_deterministic() {
        for kernel in all_kernels() {
            let mut w1 = world();
            let mut h1 = EncHeap::direct();
            let a = (kernel.run)(&mut w1, &mut h1, 1).unwrap_or_else(|e| {
                panic!("{} failed: {e}", kernel.name);
            });
            let mut w2 = world();
            let mut h2 = EncHeap::direct();
            let b = (kernel.run)(&mut w2, &mut h2, 1).expect("second run");
            assert_eq!(a, b, "{} must be deterministic", kernel.name);
        }
    }

    #[test]
    fn kernels_have_distinct_checksums() {
        let mut sums = autarky_prng::SimSet::default();
        for kernel in all_kernels() {
            let mut w = world();
            let mut h = EncHeap::direct();
            sums.insert((kernel.run)(&mut w, &mut h, 1).expect("run"));
        }
        assert!(sums.len() >= 9, "kernels compute different things");
    }

    #[test]
    fn idea_mul_is_lai_massey_multiplication() {
        assert_eq!(idea_mul(0, 0), 1); // 65536*65536 mod 65537 = 1
        assert_eq!(idea_mul(1, 1), 1);
        assert_eq!(idea_mul(2, 3), 6);
        // A value that wraps the modulus.
        assert_eq!(idea_mul(40000, 40000), ((40000u64 * 40000) % 65537) as u16);
    }

    #[test]
    fn software_float_roundtrip() {
        for &x in &[1.0, 0.5, 3.75, 123.456, 1e-3, 7e5] {
            let rt = sf_to_f64(sf_from_f64(x));
            assert!((rt - x).abs() / x < 1e-9, "{x} vs {rt}");
        }
        let a = sf_from_f64(1.5);
        let b = sf_from_f64(2.25);
        assert!((sf_to_f64(sf_mul(a, b)) - 3.375).abs() < 1e-9);
        assert!((sf_to_f64(sf_add(a, b)) - 3.75).abs() < 1e-9);
    }

    #[test]
    fn numeric_sort_scales() {
        let mut w = world();
        let mut h = EncHeap::direct();
        numeric_sort(&mut w, &mut h, 2).expect("scale 2");
    }
}
