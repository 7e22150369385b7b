//! Kernel object tables: mounted disks, character devices, the system
//! open-file table and per-process descriptor tables.

use std::collections::BTreeMap;

use kbuf::DevId;
use kdev::{AudioDac, Framebuffer, VideoDac};
use kfs::{Fs, Ino};
use khw::{Disk, RamDisk, SparseStore};
use knet::SockId;
use kproc::{Fd, Pid};
use ksim::{Dur, Hist};

/// Index into the system open-file table.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct FileId(pub u32);

/// The medium behind a mounted filesystem.
pub enum DiskUnitKind {
    /// A mechanical SCSI disk with full timing.
    Scsi(Disk),
    /// The kernel-memory RAM disk.
    Ram(RamDisk),
}

impl DiskUnitKind {
    /// The raw medium (setup/verification access).
    pub fn store(&self) -> &SparseStore {
        match self {
            DiskUnitKind::Scsi(d) => d.store(),
            DiskUnitKind::Ram(d) => d.store(),
        }
    }

    /// Mutable raw medium access.
    pub fn store_mut(&mut self) -> &mut SparseStore {
        match self {
            DiskUnitKind::Scsi(d) => d.store_mut(),
            DiskUnitKind::Ram(d) => d.store_mut(),
        }
    }

    /// True for the RAM disk (synchronous, CPU-copied transfers).
    pub fn is_ram(&self) -> bool {
        matches!(self, DiskUnitKind::Ram(_))
    }

    /// Total time this device spent servicing requests. This is the
    /// **one** busy-time accounting source: the profiler snapshot, the
    /// sampler gauges, and every bench/analysis export must read it
    /// through here so the utilization auditor compares one number
    /// against the service digest, never two divergent recomputations.
    pub fn busy_time(&self) -> Dur {
        match self {
            DiskUnitKind::Scsi(d) => d.busy_time(),
            DiskUnitKind::Ram(d) => d.busy_time(),
        }
    }

    /// Requests completed by this device.
    pub fn requests(&self) -> u64 {
        match self {
            DiskUnitKind::Scsi(d) => d.stats().requests,
            DiskUnitKind::Ram(d) => d.stats().requests,
        }
    }

    /// Requests currently queued or in flight. The RAM disk transfers
    /// synchronously in the caller's context, so its queue is always
    /// empty by construction.
    pub fn queue_depth(&self) -> u64 {
        match self {
            DiskUnitKind::Scsi(d) => d.queue_depth() as u64,
            DiskUnitKind::Ram(_) => 0,
        }
    }

    /// Per-request service-time histogram (nanoseconds).
    pub fn service_hist(&self) -> &Hist {
        match self {
            DiskUnitKind::Scsi(d) => d.service_hist(),
            DiskUnitKind::Ram(d) => d.service_hist(),
        }
    }
}

/// A mounted disk: the device model, its filesystem, and I/O bookkeeping.
pub struct DiskUnit {
    /// Mount name: files live under `/<name>/...`.
    pub name: String,
    /// The device model.
    pub kind: DiskUnitKind,
    /// The mounted filesystem.
    pub fs: Fs,
    /// Identity used in the buffer cache.
    pub dev: DevId,
    /// Asynchronous writes in flight to this device (fsync waits on 0).
    pub write_inflight: u32,
}

/// A character device instance.
pub enum CharDev {
    /// `/dev/speaker`-style self-pacing audio output.
    Audio(AudioDac),
    /// `/dev/video_dac` frame output.
    Video(VideoDac),
    /// Framebuffer frame source.
    Fb(Framebuffer),
}

/// A named character device.
pub struct CharDevUnit {
    /// Device path, e.g. `/dev/speaker`.
    pub path: String,
    /// The device.
    pub dev: CharDev,
    /// Injected fault: after this many more accepted bytes, the next
    /// splice delivery to this device fails with `EIO`. `None` = never.
    pub write_fail_after: Option<u64>,
}

/// What an open file descriptor refers to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FileObj {
    /// A regular file on a mounted disk.
    File {
        /// Index into the kernel's disk table.
        disk: usize,
        /// The file's inode.
        ino: Ino,
    },
    /// A character device.
    Chr {
        /// Index into the kernel's character-device table.
        cdev: usize,
    },
    /// A UDP socket.
    Sock {
        /// The socket.
        sock: SockId,
    },
}

/// A system open-file table entry (shared offset semantics like UNIX).
pub struct OpenFile {
    /// What it refers to.
    pub obj: FileObj,
    /// Byte offset for files.
    pub offset: u64,
    /// `FASYNC` set via `fcntl`.
    pub fasync: bool,
    /// Readable.
    pub readable: bool,
    /// Writable.
    pub writable: bool,
    /// Descriptor references (close drops; entry dies at zero).
    pub refs: u32,
    /// Last logical block read (sequential-access detection for
    /// read-ahead).
    pub last_lblk: Option<u64>,
}

/// The open-file table plus per-process descriptor tables.
///
/// Open-file slots are reused once their last descriptor closes, and a
/// process's descriptor map exists only while it has a descriptor open:
/// closing the last one drops the map, as `closef` leaves nothing of a
/// closed file behind. Memory follows what is open now, not every
/// process that ever opened something.
#[derive(Default)]
pub struct FileTable {
    files: Vec<Option<OpenFile>>,
    fds: BTreeMap<Pid, BTreeMap<Fd, FileId>>,
}

impl FileTable {
    /// Empty tables.
    pub fn new() -> FileTable {
        FileTable::default()
    }

    /// Installs an open file and assigns the lowest free descriptor ≥ 3
    /// for `pid` (0-2 are reserved as in UNIX).
    pub fn open(&mut self, pid: Pid, file: OpenFile) -> (Fd, FileId) {
        let fid = if let Some(i) = self.files.iter().position(Option::is_none) {
            self.files[i] = Some(file);
            FileId(i as u32)
        } else {
            self.files.push(Some(file));
            FileId((self.files.len() - 1) as u32)
        };
        let table = self.fds.entry(pid).or_default();
        let mut fd = 3;
        while table.contains_key(&Fd(fd)) {
            fd += 1;
        }
        table.insert(Fd(fd), fid);
        (Fd(fd), fid)
    }

    /// Resolves a descriptor for `pid`.
    pub fn resolve(&self, pid: Pid, fd: Fd) -> Option<FileId> {
        self.fds.get(&pid)?.get(&fd).copied()
    }

    /// The open file behind `fid`.
    pub fn get(&self, fid: FileId) -> Option<&OpenFile> {
        self.files.get(fid.0 as usize)?.as_ref()
    }

    /// Mutable open file access.
    pub fn get_mut(&mut self, fid: FileId) -> Option<&mut OpenFile> {
        self.files.get_mut(fid.0 as usize)?.as_mut()
    }

    /// Closes `fd` for `pid`; returns the open file if this was the last
    /// reference (so the kernel can release the underlying object).
    pub fn close(&mut self, pid: Pid, fd: Fd) -> Option<Option<OpenFile>> {
        let table = self.fds.get_mut(&pid)?;
        let fid = table.remove(&fd)?;
        if table.is_empty() {
            self.fds.remove(&pid);
        }
        let slot = self.files.get_mut(fid.0 as usize)?;
        let f = slot.as_mut()?;
        f.refs -= 1;
        if f.refs == 0 {
            Some(slot.take())
        } else {
            Some(None)
        }
    }

    /// Every descriptor of `pid` (for exit cleanup), in order.
    pub fn fds_of(&self, pid: Pid) -> Vec<Fd> {
        self.fds
            .get(&pid)
            .map(|t| t.keys().copied().collect())
            .unwrap_or_default()
    }

    /// Number of live open-file entries.
    pub fn live(&self) -> usize {
        self.files.iter().filter(|f| f.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file() -> OpenFile {
        OpenFile {
            obj: FileObj::File {
                disk: 0,
                ino: Ino(2),
            },
            offset: 0,
            fasync: false,
            readable: true,
            writable: false,
            refs: 1,
            last_lblk: None,
        }
    }

    #[test]
    fn fds_start_at_three_and_fill_gaps() {
        let mut t = FileTable::new();
        let (fd1, _) = t.open(Pid(1), file());
        let (fd2, _) = t.open(Pid(1), file());
        assert_eq!(fd1, Fd(3));
        assert_eq!(fd2, Fd(4));
        t.close(Pid(1), fd1).unwrap();
        let (fd3, _) = t.open(Pid(1), file());
        assert_eq!(fd3, Fd(3), "lowest free descriptor is reused");
    }

    #[test]
    fn per_process_namespaces() {
        let mut t = FileTable::new();
        let (fd_a, fid_a) = t.open(Pid(1), file());
        let (fd_b, fid_b) = t.open(Pid(2), file());
        assert_eq!(fd_a, fd_b, "descriptor numbers are per-process");
        assert_ne!(fid_a, fid_b);
        assert_eq!(t.resolve(Pid(1), fd_a), Some(fid_a));
        assert_eq!(t.resolve(Pid(2), fd_a), Some(fid_b));
        assert_eq!(t.resolve(Pid(3), fd_a), None);
    }

    #[test]
    fn close_releases_entry_at_zero_refs() {
        let mut t = FileTable::new();
        let (fd, fid) = t.open(Pid(1), file());
        assert_eq!(t.live(), 1);
        let released = t.close(Pid(1), fd).unwrap();
        assert!(released.is_some(), "last close yields the object");
        assert_eq!(t.live(), 0);
        assert!(t.get(fid).is_none());
        assert!(t.close(Pid(1), fd).is_none(), "double close fails");
    }

    #[test]
    fn closing_the_last_fd_drops_the_fd_map() {
        let mut t = FileTable::new();
        for pid in 1..=100 {
            let (a, _) = t.open(Pid(pid), file());
            let (b, _) = t.open(Pid(pid), file());
            t.close(Pid(pid), a).unwrap();
            assert_eq!(t.fds.len(), 1, "pid {pid} still holds {b:?}");
            t.close(Pid(pid), b).unwrap();
            assert!(t.fds.is_empty(), "pid {pid} has no open fds");
        }
        assert_eq!(t.live(), 0);
        assert!(t.fds_of(Pid(1)).is_empty());
        assert!(t.resolve(Pid(1), Fd(3)).is_none());
    }

    #[test]
    fn exit_cleanup_list() {
        let mut t = FileTable::new();
        t.open(Pid(1), file());
        t.open(Pid(1), file());
        assert_eq!(t.fds_of(Pid(1)), vec![Fd(3), Fd(4)]);
        assert!(t.fds_of(Pid(9)).is_empty());
    }
}
