//! Model-based property test of the shim's [`Bytes`] against plain
//! `Vec<u8>` contents.
//!
//! A random program of `slice` / `split_to` / `advance` / `clone` / drop /
//! `try_into_mut` runs over a pool of handles. The model tracks what each
//! handle views and which buffer it pins, which is all the callers rely
//! on: value semantics everywhere, and `try_into_mut` succeeding exactly
//! when no other handle pins the buffer (`RecvPool::recycle`). Empty
//! handles pin nothing unless `advance` emptied them in place.

use bytes::{Buf, Bytes};
use proptest::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// What the model knows about one live handle.
struct Handle {
    real: Bytes,
    view: Vec<u8>,
    /// The buffer this handle keeps alive, if any.
    pins: Option<usize>,
}

fn hash_of<T: Hash + ?Sized>(v: &T) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

fn check(h: &Handle) {
    assert_eq!(h.real.as_slice(), &h.view[..]);
    assert_eq!(h.real.len(), h.view.len());
    assert_eq!(h.real.is_empty(), h.view.is_empty());
    assert_eq!(h.real.remaining(), h.view.len());
    assert_eq!(hash_of(&h.real), hash_of(&h.view[..]));
    assert!(h.real == h.view);
}

#[test]
fn bytes_is_three_words() {
    // It rides in every scheduler entry.
    assert_eq!(std::mem::size_of::<Bytes>(), 24);
}

#[test]
fn every_way_to_an_empty_handle_is_equal_and_reclaims_to_an_empty_builder() {
    let from_advance = {
        let mut b = Bytes::from(vec![1u8, 2]);
        b.advance(2);
        b
    };
    let from_split = {
        let mut b = Bytes::from(vec![1u8, 2]);
        let _ = b.split_to(2);
        b
    };
    let empties = [
        Bytes::new(),
        Bytes::default(),
        Bytes::from(Vec::new()),
        Bytes::from(""),
        Bytes::from(String::new()),
        Bytes::from(&[][..]),
        Bytes::from_static(b""),
        Bytes::copy_from_slice(&[]),
        bytes::BytesMut::new().freeze(),
        Bytes::from(vec![1u8, 2, 3]).slice(1..1),
        Bytes::from(vec![1u8, 2, 3]).split_to(0),
        from_advance,
        from_split,
    ];
    for e in &empties {
        assert!(e.is_empty());
        assert_eq!(e.as_slice(), b"");
        assert_eq!(e, &Bytes::new());
        assert_eq!(e.cmp(&Bytes::new()), std::cmp::Ordering::Equal);
        assert_eq!(hash_of(e), hash_of(&Bytes::new()));
        let mut c = e.clone();
        assert!(c.slice(0..0).is_empty());
        assert!(c.split_to(0).is_empty());
        c.advance(0);
        assert!(c.try_into_mut().expect("an empty handle is never shared").is_empty());
    }
}

proptest! {
    #[test]
    fn random_programs_match_the_vec_model(
        ops in proptest::collection::vec((0u8..8, any::<u64>(), any::<u64>(), any::<u64>()), 1..80)
    ) {
        let mut pool: Vec<Handle> = Vec::new();
        // Capacity of every buffer ever frozen; a handle pins one by index.
        let mut caps: Vec<usize> = Vec::new();
        for (op, a, b, c) in ops {
            let pick = |n: usize, r: u64| (r % n as u64) as usize;
            if pool.is_empty() || op == 0 {
                // A fresh buffer: 0..24 bytes, sometimes with spare capacity.
                let len = (a % 24) as usize;
                let mut v = Vec::with_capacity(if b % 3 == 0 { len + 16 } else { len });
                v.extend((0..len).map(|i| (c as u8).wrapping_add(i as u8)));
                let pins = (v.capacity() > 0).then(|| {
                    caps.push(v.capacity());
                    caps.len() - 1
                });
                pool.push(Handle { view: v.clone(), real: Bytes::from(v), pins });
                check(pool.last().unwrap());
                continue;
            }
            let i = pick(pool.len(), a);
            let len = pool[i].view.len();
            match op {
                1 => {
                    let h = &pool[i];
                    let dup = Handle { real: h.real.clone(), view: h.view.clone(), pins: h.pins };
                    pool.push(dup);
                }
                2 => {
                    let lo = pick(len + 1, b);
                    let hi = lo + pick(len - lo + 1, c);
                    let h = &pool[i];
                    let sub = Handle {
                        real: h.real.slice(lo..hi),
                        view: h.view[lo..hi].to_vec(),
                        pins: if lo == hi { None } else { h.pins },
                    };
                    pool.push(sub);
                }
                3 => {
                    let at = pick(len + 1, b);
                    let h = &mut pool[i];
                    let real = h.real.split_to(at);
                    let view: Vec<u8> = h.view.drain(..at).collect();
                    // Splitting everything off moves the storage out.
                    let pins = if at == len {
                        h.pins.take()
                    } else if at == 0 {
                        None
                    } else {
                        h.pins
                    };
                    pool.push(Handle { real, view, pins });
                }
                4 => {
                    let n = pick(len + 1, b);
                    let h = &mut pool[i];
                    h.real.advance(n);
                    h.view.drain(..n);
                }
                5 => {
                    pool.swap_remove(i);
                }
                6 => {
                    let h = pool.swap_remove(i);
                    let shared = h.pins.is_some() && pool.iter().any(|o| o.pins == h.pins);
                    match h.real.try_into_mut() {
                        Ok(m) => {
                            prop_assert!(!shared, "reclaimed a buffer another handle pins");
                            prop_assert_eq!(&m[..], &h.view[..]);
                            // The whole allocation comes back, not a copy
                            // cut to the view.
                            prop_assert!(m.capacity() >= h.pins.map_or(0, |b| caps[b]));
                            // Back into the pool as a buffer of its own.
                            let pins = (m.capacity() > 0).then(|| {
                                caps.push(m.capacity());
                                caps.len() - 1
                            });
                            pool.push(Handle { real: m.freeze(), view: h.view, pins });
                        }
                        Err(back) => {
                            prop_assert!(shared, "a unique handle must be reclaimable");
                            pool.push(Handle { real: back, view: h.view, pins: h.pins });
                        }
                    }
                }
                _ => {
                    let j = pick(pool.len(), b);
                    let (x, y) = (&pool[i], &pool[j]);
                    prop_assert_eq!(x.real == y.real, x.view == y.view);
                    prop_assert_eq!(x.real.cmp(&y.real), x.view.cmp(&y.view));
                    prop_assert_eq!(x.real.partial_cmp(&y.real), x.view.partial_cmp(&y.view));
                    prop_assert_eq!(
                        hash_of(&x.real) == hash_of(&y.real),
                        hash_of(&x.view[..]) == hash_of(&y.view[..])
                    );
                }
            }
            for h in &pool {
                check(h);
            }
        }
    }

    #[test]
    fn a_unique_full_buffer_comes_back_with_its_capacity(len in 1usize..64, spare in 0usize..64) {
        // freeze → slice → drop the slices → try_into_mut is RecvPool's cycle.
        let mut v = Vec::with_capacity(len + spare);
        v.resize(len, 7u8);
        let cap = v.capacity();
        let full = Bytes::from(v);
        let part = full.slice(0..len.div_ceil(2));
        let empty = full.slice(len..len);
        prop_assert!(full.clone().try_into_mut().is_err());
        drop(part);
        // An empty slice does not pin the buffer.
        let back = full.try_into_mut().expect("only empty slices remain");
        prop_assert_eq!(back.len(), len);
        prop_assert!(back.capacity() >= cap);
        drop(empty);
    }
}
