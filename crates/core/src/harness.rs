//! Experiment scaffolding: kernel construction and setup/verification
//! helpers that bypass timing (clearly separated from the measured paths).

use kdev::{AudioDac, Framebuffer, VideoDac};
use khw::DiskProfile;
use kproc::programs::util::pattern_bytes;
use ksim::{Dur, ObsConfig, SimTime};

use crate::kernel::{Kernel, KernelConfig};
use crate::objects::CharDev;

/// Builds a [`Kernel`] with disks and character devices.
pub struct KernelBuilder {
    cfg: KernelConfig,
    disks: Vec<(String, DiskProfile)>,
    cdevs: Vec<(String, CharDev)>,
    trace: Option<usize>,
    sample: Option<(Dur, usize)>,
    observe: Option<ObsConfig>,
}

impl Default for KernelBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl KernelBuilder {
    /// A builder with the paper's default configuration.
    pub fn new() -> KernelBuilder {
        KernelBuilder {
            cfg: KernelConfig::default(),
            disks: Vec::new(),
            cdevs: Vec::new(),
            trace: None,
            sample: None,
            observe: None,
        }
    }

    /// Enables the typed trace ring with room for `capacity` records.
    /// Without this opt-in every tracepoint stays a single branch.
    pub fn trace(mut self, capacity: usize) -> KernelBuilder {
        self.trace = Some(capacity);
        self
    }

    /// Enables the resource-accounting sampler: every `period` of
    /// simulated time a gauge sample (inflight splice work, disk queue
    /// depths, cache occupancy, per-PID CPU share) is recorded into a
    /// ring of `capacity` samples and mirrored into the trace's counter
    /// tracks. Without this opt-in no sampling work is ever scheduled
    /// and trace output is byte-identical to a sampler-free kernel.
    pub fn sample(mut self, period: Dur, capacity: usize) -> KernelBuilder {
        self.sample = Some((period, capacity));
        self
    }

    /// Reconfigures the resident request-observability pipeline
    /// (head-sampling period, SLO objective, costs). The kernel always
    /// builds with [`ObsConfig::on`]; pass [`ObsConfig::off`] for an
    /// overhead baseline, or a tightened [`ObsConfig`] to provoke SLO
    /// alerts in tests.
    pub fn observe(mut self, cfg: ObsConfig) -> KernelBuilder {
        self.observe = Some(cfg);
        self
    }

    /// Overrides the kernel configuration.
    pub fn config(mut self, cfg: KernelConfig) -> KernelBuilder {
        self.cfg = cfg;
        self
    }

    /// Mutates the configuration in place (ablation sweeps).
    pub fn tune(mut self, f: impl FnOnce(&mut KernelConfig)) -> KernelBuilder {
        f(&mut self.cfg);
        self
    }

    /// Adds a disk mounted at `/<name>`.
    pub fn disk(mut self, name: &str, profile: DiskProfile) -> KernelBuilder {
        self.disks.push((name.to_string(), profile));
        self
    }

    /// Adds an audio DAC at `path` (e.g. `/dev/speaker`).
    pub fn audio_dac(mut self, path: &str, dac: AudioDac) -> KernelBuilder {
        self.cdevs.push((path.to_string(), CharDev::Audio(dac)));
        self
    }

    /// Adds a video DAC at `path` (e.g. `/dev/video_dac`).
    pub fn video_dac(mut self, path: &str, dac: VideoDac) -> KernelBuilder {
        self.cdevs.push((path.to_string(), CharDev::Video(dac)));
        self
    }

    /// Adds a framebuffer at `path` (e.g. `/dev/fb`).
    pub fn framebuffer(mut self, path: &str, fb: Framebuffer) -> KernelBuilder {
        self.cdevs.push((path.to_string(), CharDev::Fb(fb)));
        self
    }

    /// Builds the kernel.
    pub fn build(self) -> Kernel {
        let mut k = Kernel::new(self.cfg);
        for (name, profile) in self.disks {
            k.add_disk(&name, profile);
        }
        for (path, dev) in self.cdevs {
            k.add_cdev(&path, dev);
        }
        if let Some(capacity) = self.trace {
            k.install_trace(capacity);
        }
        // After the trace: installing a trace ring replaces the trace
        // object, and the sampler registers its counter capacity on it.
        if let Some((period, capacity)) = self.sample {
            k.install_sampler(period, capacity);
        }
        if let Some(cfg) = self.observe {
            k.install_obs(cfg);
        }
        k
    }

    /// The paper's experimental machine: two disks of the given profile
    /// (source and destination filesystems on different physical disks,
    /// §6.2) mounted at `/d0` and `/d1`.
    pub fn paper_machine(profile: DiskProfile) -> KernelBuilder {
        KernelBuilder::new()
            .disk("d0", profile.clone())
            .disk("d1", profile)
    }

    /// [`KernelBuilder::paper_machine`] with RAM disks — the most common
    /// test fixture. Returns the builder (like every other constructor
    /// here); call `.build()` to get the kernel.
    pub fn paper_machine_ram() -> KernelBuilder {
        Self::paper_machine(DiskProfile::ramdisk())
    }
}

impl Kernel {
    // ----- setup/verification (timing-free, never in measured phases) -------

    /// Creates (or replaces) a file with `len` pattern bytes, writing the
    /// medium directly. Returns nothing; panics on setup errors because
    /// experiment setup must not silently degrade.
    ///
    /// # Panics
    ///
    /// Panics if the path cannot be created or the disk is full.
    pub fn setup_file(&mut self, path: &str, len: u64, seed: u64) {
        let (disk, sub) = self
            .resolve_disk_path(path)
            .unwrap_or_else(|| panic!("bad setup path {path}"));
        let unit = &mut self.disks[disk];
        let ino = match unit.fs.lookup(&sub) {
            Ok(ino) => {
                unit.fs.truncate(ino).expect("inode exists");
                ino
            }
            Err(_) => unit.fs.create(&sub).expect("creatable path"),
        };
        // Chunked writes keep memory flat for big files.
        let chunk = 1 << 20;
        let mut off = 0u64;
        while off < len {
            let n = chunk.min((len - off) as usize);
            let data = pattern_bytes(seed, off, n);
            let (kind, fs) = (&mut unit.kind, &mut unit.fs);
            fs.write_direct(kind.store_mut(), ino, off, &data)
                .expect("setup write");
            off += n as u64;
        }
        let (kind, fs) = (&mut unit.kind, &mut unit.fs);
        fs.sync(kind.store_mut());
    }

    /// Reads a file's contents straight from the medium (verification).
    ///
    /// # Panics
    ///
    /// Panics if the path does not resolve.
    pub fn dump_file(&self, path: &str) -> Vec<u8> {
        let (disk, sub) = self
            .resolve_disk_path(path)
            .unwrap_or_else(|| panic!("bad path {path}"));
        let unit = &self.disks[disk];
        let ino = unit.fs.lookup(&sub).expect("file exists");
        let size = unit.fs.size(ino);
        unit.fs
            .read_direct(unit.kind.store(), ino, 0, size as usize)
    }

    /// Verifies that a file holds exactly `len` bytes of pattern `seed`.
    /// Returns the first mismatching offset, if any.
    pub fn verify_pattern_file(&self, path: &str, len: u64, seed: u64) -> Option<u64> {
        let data = self.dump_file(path);
        if data.len() as u64 != len {
            return Some(data.len().min(len as usize) as u64);
        }
        kproc::programs::util::pattern_check(seed, 0, &data).map(|i| i as u64)
    }

    /// File size straight from the filesystem.
    ///
    /// # Panics
    ///
    /// Panics if the path does not resolve.
    pub fn file_size(&self, path: &str) -> u64 {
        let (disk, sub) = self
            .resolve_disk_path(path)
            .unwrap_or_else(|| panic!("bad path {path}"));
        let unit = &self.disks[disk];
        let ino = unit.fs.lookup(&sub).expect("file exists");
        unit.fs.size(ino)
    }

    /// Flushes all dirty blocks and metadata, waits for the devices to
    /// quiesce, then drops every cached block — the §6.1 "read cache cold
    /// start" between experiment phases.
    ///
    /// # Panics
    ///
    /// Panics if processes are still alive (cold-starting mid-experiment
    /// would corrupt the measurement) or the flush does not quiesce.
    pub fn cold_cache(&mut self) {
        assert!(
            self.procs.all_exited(),
            "cold_cache with live processes would distort measurements"
        );
        // Flush dirty blocks.
        for disk in 0..self.disks.len() {
            let dev = self.disks[disk].dev;
            for buf in self.cache.dirty_bufs(dev) {
                if !self.cache.claim_for_flush(buf) {
                    continue;
                }
                let mut fx = Vec::new();
                self.cache.bawrite(buf, &mut fx);
                self.apply_cache_effects(fx, crate::kernel::IoCtx::Kernel);
            }
        }
        // Wait for writes (and any splice stragglers) to finish.
        let horizon = self.q.now() + ksim::Dur::from_secs(120);
        self.run_until(horizon, |k| {
            k.disks.iter().all(|d| d.write_inflight == 0) && k.deferred.is_empty()
        });
        assert!(
            self.disks.iter().all(|d| d.write_inflight == 0),
            "flush did not quiesce"
        );
        // Metadata writeback (setup-grade, timing-free).
        for unit in &mut self.disks {
            let (kind, fs) = (&mut unit.kind, &mut unit.fs);
            fs.sync(kind.store_mut());
        }
        self.cache.invalidate_all();
        self.counts.cold_caches += 1;
    }

    /// Runs `fsck` on every mounted filesystem, returning all errors.
    pub fn fsck_all(&mut self) -> Vec<String> {
        let mut errors = Vec::new();
        for unit in &mut self.disks {
            let (kind, fs) = (&mut unit.kind, &mut unit.fs);
            fs.sync(kind.store_mut());
            let rep = kfs::fsck(unit.kind.store());
            for e in rep.errors {
                errors.push(format!("{}: {e}", unit.name));
            }
        }
        errors
    }

    /// Convenience horizon helper: `now + secs` of simulated time.
    pub fn horizon(&self, secs: u64) -> SimTime {
        self.q.now() + ksim::Dur::from_secs(secs)
    }
}
