//! Fixed-size slotted pages.
//!
//! A page is the unit of buffering and (virtual) I/O. Tuples are stored
//! with the classic slotted layout: a header, a slot directory growing
//! forward from the header, and tuple payloads growing backward from the
//! end of the page. Deleting a tuple marks its slot dead; space is
//! reclaimed only by rewriting the file (sufficient for the paper's
//! read-only exploratory workload, where deletion only happens when whole
//! materialized relations are dropped).

use crate::error::{StorageError, StorageResult};
use serde::{Deserialize, Serialize};

/// Size of every page in bytes (8 KB, matching common 2002-era DBMS defaults).
pub const PAGE_SIZE: usize = 8192;

/// Bytes of page header: tuple count (u16) + free-space offset (u16).
const HEADER_SIZE: usize = 4;
/// Bytes per slot directory entry: offset (u16) + length (u16).
const SLOT_SIZE: usize = 4;
/// Length sentinel marking a deleted slot.
const DEAD: u16 = u16::MAX;

/// Identifier of a heap file within a database instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FileId(pub u32);

/// Identifier of a page: a file and a page number within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PageId {
    /// File this page belongs to.
    pub file: FileId,
    /// Zero-based page number within the file.
    pub page_no: u32,
}

impl PageId {
    /// Construct a page id.
    pub fn new(file: FileId, page_no: u32) -> Self {
        PageId { file, page_no }
    }
}

/// An in-memory page image with slotted-tuple accessors.
///
/// The maximum tuple payload a page can hold is
/// [`Page::max_tuple_size`] bytes; larger tuples are rejected rather
/// than spilled (the TPC-H subset schema never approaches the limit).
#[derive(Clone)]
pub struct Page {
    data: Box<[u8; PAGE_SIZE]>,
}

impl Default for Page {
    fn default() -> Self {
        Self::new()
    }
}

impl Page {
    /// Create an empty page.
    pub fn new() -> Self {
        let mut data = Box::new([0u8; PAGE_SIZE]);
        // Free space starts at the end of the page and grows downward.
        write_u16(&mut data[..], 2, PAGE_SIZE as u16);
        Page { data }
    }

    /// Reconstruct a page from a raw image (e.g. read back from the
    /// virtual disk). The image is trusted; accessors validate slots.
    pub fn from_bytes(bytes: &[u8]) -> StorageResult<Self> {
        if bytes.len() != PAGE_SIZE {
            return Err(StorageError::Corrupt(format!(
                "page image has {} bytes, expected {PAGE_SIZE}",
                bytes.len()
            )));
        }
        let mut data = Box::new([0u8; PAGE_SIZE]);
        data.copy_from_slice(bytes);
        Ok(Page { data })
    }

    /// The raw page image.
    pub fn as_bytes(&self) -> &[u8] {
        &self.data[..]
    }

    /// Number of slots in the directory (including dead ones).
    pub fn slot_count(&self) -> usize {
        read_u16(&self.data[..], 0) as usize
    }

    /// Number of live (non-deleted) tuples.
    pub fn live_count(&self) -> usize {
        (0..self.slot_count()).filter(|&i| self.slot(i).1 != DEAD).count()
    }

    fn free_offset(&self) -> usize {
        read_u16(&self.data[..], 2) as usize
    }

    fn slot(&self, idx: usize) -> (u16, u16) {
        let base = HEADER_SIZE + idx * SLOT_SIZE;
        (read_u16(&self.data[..], base), read_u16(&self.data[..], base + 2))
    }

    /// Free bytes available for a new tuple (accounting for its slot entry).
    pub fn free_space(&self) -> usize {
        let slots_end = HEADER_SIZE + self.slot_count() * SLOT_SIZE;
        self.free_offset().saturating_sub(slots_end).saturating_sub(SLOT_SIZE)
    }

    /// Largest tuple payload that fits in an empty page.
    pub fn max_tuple_size() -> usize {
        PAGE_SIZE - HEADER_SIZE - SLOT_SIZE
    }

    /// Insert a tuple payload, returning its slot index, or `None` if the
    /// page is full. Errors if the tuple cannot fit in any page.
    pub fn insert(&mut self, payload: &[u8]) -> StorageResult<Option<usize>> {
        self.insert_with(payload.len(), |buf| buf.copy_from_slice(payload))
    }

    /// [`Page::insert`] for a payload of `len` bytes that `write` fills in
    /// place (it is handed exactly `len` bytes, and only if they fit).
    pub(crate) fn insert_with(
        &mut self,
        len: usize,
        write: impl FnOnce(&mut [u8]),
    ) -> StorageResult<Option<usize>> {
        if len > Self::max_tuple_size() {
            return Err(StorageError::TupleTooLarge { size: len, max: Self::max_tuple_size() });
        }
        if len > self.free_space() {
            return Ok(None);
        }
        let count = self.slot_count();
        let new_off = self.free_offset() - len;
        write(&mut self.data[new_off..new_off + len]);
        let base = HEADER_SIZE + count * SLOT_SIZE;
        write_u16(&mut self.data[..], base, new_off as u16);
        write_u16(&mut self.data[..], base + 2, len as u16);
        write_u16(&mut self.data[..], 0, (count + 1) as u16);
        write_u16(&mut self.data[..], 2, new_off as u16);
        Ok(Some(count))
    }

    /// Read the payload of a slot; `None` if the slot is dead.
    pub fn get(&self, slot: usize) -> StorageResult<Option<&[u8]>> {
        if slot >= self.slot_count() {
            return Err(StorageError::Corrupt(format!(
                "slot {slot} out of range (count {})",
                self.slot_count()
            )));
        }
        let (off, len) = self.slot(slot);
        if len == DEAD {
            return Ok(None);
        }
        let (off, len) = (off as usize, len as usize);
        if off + len > PAGE_SIZE {
            return Err(StorageError::Corrupt(format!(
                "slot {slot} extends past page end ({off}+{len})"
            )));
        }
        Ok(Some(&self.data[off..off + len]))
    }

    /// Mark a slot dead. Space is not reclaimed.
    pub fn delete(&mut self, slot: usize) -> StorageResult<()> {
        if slot >= self.slot_count() {
            return Err(StorageError::Corrupt(format!("delete of bad slot {slot}")));
        }
        let base = HEADER_SIZE + slot * SLOT_SIZE;
        write_u16(&mut self.data[..], base + 2, DEAD);
        Ok(())
    }

    /// Iterate over `(slot, payload)` for all live tuples.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[u8])> + '_ {
        (0..self.slot_count()).filter_map(move |i| {
            let (off, len) = self.slot(i);
            if len == DEAD {
                None
            } else {
                Some((i, &self.data[off as usize..off as usize + len as usize]))
            }
        })
    }
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Page")
            .field("slots", &self.slot_count())
            .field("live", &self.live_count())
            .field("free", &self.free_space())
            .finish()
    }
}

fn read_u16(buf: &[u8], off: usize) -> u16 {
    u16::from_le_bytes([buf[off], buf[off + 1]])
}

fn write_u16(buf: &mut [u8], off: usize, val: u16) {
    buf[off..off + 2].copy_from_slice(&val.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_page_has_no_tuples() {
        let p = Page::new();
        assert_eq!(p.slot_count(), 0);
        assert_eq!(p.live_count(), 0);
        assert!(p.free_space() > 8000);
    }

    #[test]
    fn insert_and_get_round_trip() {
        let mut p = Page::new();
        let s0 = p.insert(b"hello").unwrap().unwrap();
        let s1 = p.insert(b"world!").unwrap().unwrap();
        assert_eq!(s0, 0);
        assert_eq!(s1, 1);
        assert_eq!(p.get(0).unwrap().unwrap(), b"hello");
        assert_eq!(p.get(1).unwrap().unwrap(), b"world!");
        assert_eq!(p.live_count(), 2);
    }

    #[test]
    fn delete_marks_slot_dead() {
        let mut p = Page::new();
        p.insert(b"a").unwrap();
        p.insert(b"b").unwrap();
        p.delete(0).unwrap();
        assert_eq!(p.get(0).unwrap(), None);
        assert_eq!(p.get(1).unwrap().unwrap(), b"b");
        assert_eq!(p.live_count(), 1);
        let collected: Vec<_> = p.iter().map(|(i, _)| i).collect();
        assert_eq!(collected, vec![1]);
    }

    #[test]
    fn fills_up_and_reports_full() {
        let mut p = Page::new();
        let payload = vec![7u8; 1000];
        let mut inserted = 0;
        while p.insert(&payload).unwrap().is_some() {
            inserted += 1;
        }
        // 8188 usable bytes / (1000 + 4 slot) ≈ 8 tuples.
        assert_eq!(inserted, 8);
        assert_eq!(p.live_count(), 8);
    }

    #[test]
    fn oversized_tuple_is_an_error() {
        let mut p = Page::new();
        let err = p.insert(&vec![0u8; PAGE_SIZE]).unwrap_err();
        assert!(matches!(err, StorageError::TupleTooLarge { .. }));
    }

    #[test]
    fn bytes_round_trip() {
        let mut p = Page::new();
        p.insert(b"persist me").unwrap();
        let restored = Page::from_bytes(p.as_bytes()).unwrap();
        assert_eq!(restored.get(0).unwrap().unwrap(), b"persist me");
    }

    #[test]
    fn from_bytes_rejects_wrong_size() {
        assert!(Page::from_bytes(&[0u8; 16]).is_err());
    }

    #[test]
    fn get_out_of_range_is_error() {
        let p = Page::new();
        assert!(p.get(0).is_err());
    }
}
