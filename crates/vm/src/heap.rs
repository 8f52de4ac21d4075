//! The per-address-space heap: objects, arrays, generational handles.
//!
//! The heap supports one operation a conventional VM does not:
//! [`Heap::replace_object`], which rewrites a live object's class and fields
//! *in place*. This is the mechanism behind RAFDA's dynamic distribution
//! boundaries — when an object migrates to another node, the local instance
//! is rewritten into a proxy (`Cp` in the paper's Figure 1) without touching
//! any of the references that point at it, and vice versa when an object is
//! pulled back local.
//!
//! The heap can also keep a **write log**: once armed with
//! [`Heap::log_writes`], every field store and array-element store records
//! the written handle until [`Heap::take_writes`] drains it. A distributed
//! runtime uses it to learn exactly which objects application code mutated
//! without passing through the runtime.

use crate::error::{Trap, VmError};
use crate::value::Value;
use rafda_classmodel::{ClassId, Ty};
use std::fmt;

/// A generational heap handle. Using a generation counter means stale
/// handles to freed slots are detected instead of silently reading reused
/// memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Handle {
    pub(crate) index: u32,
    pub(crate) generation: u32,
}

impl fmt::Display for Handle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.index, self.generation)
    }
}

/// What a heap slot holds.
#[derive(Debug, Clone, PartialEq)]
pub enum HeapEntry {
    /// An object: its runtime class and flattened field slots
    /// (root-superclass fields first).
    Object {
        /// The object's runtime class.
        class: ClassId,
        /// Flattened field slots (inherited fields first).
        fields: Vec<Value>,
    },
    /// An array with a fixed element type.
    Array {
        /// Element type (used for default values at allocation).
        elem: Ty,
        /// The elements.
        data: Vec<Value>,
    },
}

#[derive(Debug)]
struct Slot {
    generation: u32,
    entry: Option<HeapEntry>,
}

/// Statistics kept by the heap.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct HeapStats {
    /// Total objects ever allocated.
    pub objects_allocated: u64,
    /// Total arrays ever allocated.
    pub arrays_allocated: u64,
    /// Live entries right now.
    pub live: u64,
    /// In-place object replacements (boundary swaps).
    pub replacements: u64,
}

/// A growable heap of objects and arrays addressed by [`Handle`].
#[derive(Debug, Default)]
pub struct Heap {
    slots: Vec<Slot>,
    free: Vec<u32>,
    stats: HeapStats,
    /// Handles written since the last [`Heap::take_writes`]; `None` while
    /// the log is unarmed, so an unlogged store costs one branch.
    writes: Option<Vec<Handle>>,
}

impl Heap {
    /// Create an empty heap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current statistics.
    pub fn stats(&self) -> HeapStats {
        self.stats
    }

    fn insert(&mut self, entry: HeapEntry) -> Handle {
        self.stats.live += 1;
        match entry {
            HeapEntry::Object { .. } => self.stats.objects_allocated += 1,
            HeapEntry::Array { .. } => self.stats.arrays_allocated += 1,
        }
        if let Some(index) = self.free.pop() {
            let slot = &mut self.slots[index as usize];
            slot.entry = Some(entry);
            Handle {
                index,
                generation: slot.generation,
            }
        } else {
            self.slots.push(Slot {
                generation: 0,
                entry: Some(entry),
            });
            Handle {
                index: (self.slots.len() - 1) as u32,
                generation: 0,
            }
        }
    }

    /// Allocate an object of `class` with the given (already flattened)
    /// field slots.
    pub fn alloc_object(&mut self, class: ClassId, fields: Vec<Value>) -> Handle {
        self.insert(HeapEntry::Object { class, fields })
    }

    /// Allocate an array.
    pub fn alloc_array(&mut self, elem: Ty, data: Vec<Value>) -> Handle {
        self.insert(HeapEntry::Array { elem, data })
    }

    fn slot(&self, h: Handle) -> Option<&Slot> {
        self.slots
            .get(h.index as usize)
            .filter(|s| s.generation == h.generation)
    }

    fn slot_mut(&mut self, h: Handle) -> Option<&mut Slot> {
        self.slots
            .get_mut(h.index as usize)
            .filter(|s| s.generation == h.generation)
    }

    /// Access an entry; `None` for stale or freed handles.
    pub fn get(&self, h: Handle) -> Option<&HeapEntry> {
        self.slot(h).and_then(|s| s.entry.as_ref())
    }

    /// Mutable access to an entry.
    pub fn get_mut(&mut self, h: Handle) -> Option<&mut HeapEntry> {
        self.slot_mut(h).and_then(|s| s.entry.as_mut())
    }

    /// The runtime class of the object at `h`, if it is a live object.
    pub fn class_of(&self, h: Handle) -> Option<ClassId> {
        match self.get(h) {
            Some(HeapEntry::Object { class, .. }) => Some(*class),
            _ => None,
        }
    }

    /// Read field slot `offset` of the object at `h`.
    pub fn field(&self, h: Handle, offset: usize) -> Option<&Value> {
        match self.get(h) {
            Some(HeapEntry::Object { fields, .. }) => fields.get(offset),
            _ => None,
        }
    }

    /// Write field slot `offset` of the object at `h`. Returns `false` for
    /// stale handles or out-of-range offsets.
    pub fn set_field(&mut self, h: Handle, offset: usize, value: Value) -> bool {
        match self.get_mut(h) {
            Some(HeapEntry::Object { fields, .. }) if offset < fields.len() => {
                fields[offset] = value;
                self.note_write(h);
                true
            }
            _ => false,
        }
    }

    /// Write element `index` of the array at `h`.
    ///
    /// # Errors
    /// [`Trap::IndexOutOfBounds`] for an index outside the array,
    /// [`Trap::StaleHandle`] for a stale handle, and a type error when `h`
    /// is not an array.
    pub fn set_element(&mut self, h: Handle, index: i32, value: Value) -> Result<(), VmError> {
        match self.get_mut(h) {
            Some(HeapEntry::Array { data, .. }) => {
                let len = data.len();
                if index < 0 || index as usize >= len {
                    return Err(VmError::Trap(Trap::IndexOutOfBounds {
                        index: i64::from(index),
                        len,
                    }));
                }
                data[index as usize] = value;
                self.note_write(h);
                Ok(())
            }
            Some(_) => Err(VmError::type_error("indexing a non-array")),
            None => Err(VmError::Trap(Trap::StaleHandle)),
        }
    }

    /// Arm the write log: from now on every field and element store
    /// records its handle for [`Heap::take_writes`].
    pub fn log_writes(&mut self) {
        self.writes.get_or_insert_with(Vec::new);
    }

    /// Drain the write log: the handles written since the last drain, in
    /// store order with immediate repeats collapsed. Empty while unarmed.
    pub fn take_writes(&mut self) -> Vec<Handle> {
        self.writes.as_mut().map(std::mem::take).unwrap_or_default()
    }

    fn note_write(&mut self, h: Handle) {
        if let Some(log) = &mut self.writes {
            if log.last() != Some(&h) {
                log.push(h);
            }
        }
    }

    /// Rewrite a live object **in place**: change its class and fields while
    /// keeping its handle valid. All existing references now see the new
    /// implementation — this is the local↔proxy swap of the paper's
    /// Figure 1.
    ///
    /// Returns the previous entry, or `None` (no change) if the handle is
    /// stale or not an object.
    pub fn replace_object(
        &mut self,
        h: Handle,
        class: ClassId,
        fields: Vec<Value>,
    ) -> Option<HeapEntry> {
        match self.get_mut(h) {
            Some(entry @ HeapEntry::Object { .. }) => {
                let old = std::mem::replace(entry, HeapEntry::Object { class, fields });
                self.stats.replacements += 1;
                Some(old)
            }
            _ => None,
        }
    }

    /// Free an entry, invalidating all handles to it.
    pub fn free(&mut self, h: Handle) -> bool {
        match self.slot_mut(h) {
            Some(slot) if slot.entry.is_some() => {
                slot.entry = None;
                slot.generation += 1;
                self.free.push(h.index);
                self.stats.live -= 1;
                true
            }
            _ => false,
        }
    }

    /// Number of live entries.
    pub fn live(&self) -> usize {
        self.stats.live as usize
    }

    /// Free every live entry whose index is not in `keep` (the mark set of
    /// a mark-and-sweep collection). Returns the number of entries freed.
    pub fn sweep(&mut self, keep: &std::collections::HashSet<u32>) -> usize {
        let mut freed = 0;
        let doomed: Vec<Handle> = self
            .handles()
            .filter(|h| !keep.contains(&h.index))
            .collect();
        for h in doomed {
            if self.free(h) {
                freed += 1;
            }
        }
        freed
    }

    /// Iterate over all live handles.
    pub fn handles(&self) -> impl Iterator<Item = Handle> + '_ {
        self.slots.iter().enumerate().filter_map(|(i, s)| {
            s.entry.as_ref().map(|_| Handle {
                index: i as u32,
                generation: s.generation,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_read() {
        let mut heap = Heap::new();
        let h = heap.alloc_object(ClassId(1), vec![Value::Int(5)]);
        assert_eq!(heap.class_of(h), Some(ClassId(1)));
        assert_eq!(heap.field(h, 0), Some(&Value::Int(5)));
        assert_eq!(heap.field(h, 1), None);
        assert_eq!(heap.live(), 1);
    }

    #[test]
    fn set_field_bounds_checked() {
        let mut heap = Heap::new();
        let h = heap.alloc_object(ClassId(1), vec![Value::Null]);
        assert!(heap.set_field(h, 0, Value::Int(9)));
        assert!(!heap.set_field(h, 3, Value::Int(9)));
        assert_eq!(heap.field(h, 0), Some(&Value::Int(9)));
    }

    #[test]
    fn set_element_bounds_and_kind_checked() {
        let mut heap = Heap::new();
        let a = heap.alloc_array(Ty::Int, vec![Value::Int(0); 2]);
        assert!(heap.set_element(a, 1, Value::Int(7)).is_ok());
        assert_eq!(
            heap.get(a),
            Some(&HeapEntry::Array {
                elem: Ty::Int,
                data: vec![Value::Int(0), Value::Int(7)]
            })
        );
        assert!(matches!(
            heap.set_element(a, 2, Value::Int(1)),
            Err(VmError::Trap(Trap::IndexOutOfBounds { index: 2, len: 2 }))
        ));
        assert!(heap.set_element(a, -1, Value::Int(1)).is_err());
        let o = heap.alloc_object(ClassId(1), vec![]);
        assert!(heap.set_element(o, 0, Value::Int(1)).is_err());
        heap.free(a);
        assert!(matches!(
            heap.set_element(a, 0, Value::Int(1)),
            Err(VmError::Trap(Trap::StaleHandle))
        ));
    }

    #[test]
    fn write_log_records_stores_only_while_armed() {
        let mut heap = Heap::new();
        let o = heap.alloc_object(ClassId(1), vec![Value::Null]);
        let a = heap.alloc_array(Ty::Int, vec![Value::Int(0)]);
        heap.set_field(o, 0, Value::Int(1));
        assert!(heap.take_writes().is_empty(), "unarmed heaps log nothing");
        heap.log_writes();
        heap.set_field(o, 0, Value::Int(2));
        heap.set_field(o, 0, Value::Int(3));
        heap.set_element(a, 0, Value::Int(4)).unwrap();
        heap.set_field(o, 0, Value::Int(5));
        assert!(
            !heap.set_field(o, 9, Value::Int(6)),
            "failed stores log nothing"
        );
        assert_eq!(heap.take_writes(), vec![o, a, o]);
        assert!(heap.take_writes().is_empty(), "a drain empties the log");
        heap.set_field(o, 0, Value::Int(7));
        assert_eq!(heap.take_writes(), vec![o], "the log stays armed");
    }

    #[test]
    fn stale_handles_detected_after_free() {
        let mut heap = Heap::new();
        let h = heap.alloc_object(ClassId(1), vec![]);
        assert!(heap.free(h));
        assert!(heap.get(h).is_none());
        assert!(!heap.free(h));
        // Slot reuse gets a new generation.
        let h2 = heap.alloc_object(ClassId(2), vec![]);
        assert_eq!(h2.index, h.index);
        assert_ne!(h2.generation, h.generation);
        assert!(heap.get(h).is_none());
        assert!(heap.get(h2).is_some());
    }

    #[test]
    fn replace_object_keeps_handle_and_counts() {
        let mut heap = Heap::new();
        let h = heap.alloc_object(ClassId(1), vec![Value::Int(1)]);
        let old = heap.replace_object(h, ClassId(9), vec![Value::Long(7), Value::Null]);
        assert_eq!(
            old,
            Some(HeapEntry::Object {
                class: ClassId(1),
                fields: vec![Value::Int(1)]
            })
        );
        assert_eq!(heap.class_of(h), Some(ClassId(9)));
        assert_eq!(heap.field(h, 0), Some(&Value::Long(7)));
        assert_eq!(heap.stats().replacements, 1);
    }

    #[test]
    fn replace_rejects_arrays_and_stale() {
        let mut heap = Heap::new();
        let a = heap.alloc_array(Ty::Int, vec![Value::Int(1)]);
        assert!(heap.replace_object(a, ClassId(1), vec![]).is_none());
        let h = heap.alloc_object(ClassId(1), vec![]);
        heap.free(h);
        assert!(heap.replace_object(h, ClassId(1), vec![]).is_none());
    }

    #[test]
    fn stats_track_allocations() {
        let mut heap = Heap::new();
        heap.alloc_object(ClassId(0), vec![]);
        heap.alloc_array(Ty::Int, vec![]);
        let h = heap.alloc_object(ClassId(0), vec![]);
        heap.free(h);
        let s = heap.stats();
        assert_eq!(s.objects_allocated, 2);
        assert_eq!(s.arrays_allocated, 1);
        assert_eq!(s.live, 2);
        assert_eq!(heap.handles().count(), 2);
    }
}
