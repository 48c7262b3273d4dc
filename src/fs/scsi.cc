#include "src/fs/scsi.h"

#include <algorithm>
#include <cstring>

#include "src/path/path_manager.h"

namespace escort {

uint64_t ScsiDiskModule::AllocBlocks(uint64_t count) {
  uint64_t lba = next_lba_;
  next_lba_ += count;
  image_.resize(next_lba_ * kBlockSize, 0);
  return lba;
}

void ScsiDiskModule::WriteDirect(uint64_t lba, const std::vector<uint8_t>& bytes) {
  uint64_t offset = lba * kBlockSize;
  if (offset + bytes.size() > image_.size()) {
    image_.resize(offset + bytes.size(), 0);
    next_lba_ = (image_.size() + kBlockSize - 1) / kBlockSize;
  }
  std::memcpy(image_.data() + offset, bytes.data(), bytes.size());
}

bool ScsiDiskModule::ReadDirect(uint64_t lba, uint64_t len, std::vector<uint8_t>* out) const {
  uint64_t offset = lba * kBlockSize;
  if (offset + len > image_.size()) {
    return false;
  }
  out->assign(image_.begin() + static_cast<long>(offset),
              image_.begin() + static_cast<long>(offset + len));
  return true;
}

OpenResult ScsiDiskModule::Open(Path* path, const Attributes& attrs) {
  (void)path;
  (void)attrs;
  OpenResult r;
  r.ok = true;
  r.next = nullptr;  // end of the path
  return r;
}

void ScsiDiskModule::Process(Stage& stage, Message msg, Direction dir) {
  ConsumeCost(dir);
  if (dir != Direction::kUp || msg.kind != MsgKind::kFileRequest) {
    return;
  }
  uint64_t lba = AuxLba(msg.aux);
  uint64_t len = AuxLen(msg.aux);
  uint64_t offset = lba * kBlockSize;
  Path* path = stage.path;
  Stage* stage_ptr = &stage;
  std::string note = msg.note;

  if (offset + len > image_.size()) {
    Message err = Message::Alloc(kernel(), path, pd(), path->StageDomains(), 1, 0);
    if (err.valid()) {
      err.kind = MsgKind::kFileError;
      err.note = note;
      path->ForwardDown(*stage_ptr, std::move(err));
    }
    return;
  }

  // Model the device: serialize operations, seek + transfer.
  ++reads_;
  Cycles now = kernel()->now();
  Cycles start = std::max(now, disk_free_);
  Cycles transfer = CyclesFromSeconds(static_cast<double>(len) / transfer_bytes_per_sec);
  Cycles done = start + seek_latency + transfer;
  disk_free_ = done;

  std::vector<uint8_t> bytes(image_.begin() + static_cast<long>(offset),
                             image_.begin() + static_cast<long>(offset + len));
  Kernel* k = kernel();
  PdId my_pd = pd();
  // The completion fires after the seek + transfer delay, during which the
  // path can be killed AND reaped (ReapRetired frees retired paths at the
  // next demux). Capture value keys — the owner id and stage index — and
  // revalidate through the manager at each hop (EA001); the old
  // `path->destroyed()` guard dereferenced freed memory. The manager itself
  // is cell-lifetime and safe to capture.
  PathManager* pm = path->manager();
  uint64_t path_id = path->id();
  size_t stage_index = static_cast<size_t>(stage.index);
  k->event_queue()->ScheduleAt(done, [this, k, my_pd, pm, path_id, stage_index, note,
                                      bytes = std::move(bytes)] {
    Path* live = pm->FindLive(path_id);
    if (live == nullptr) {
      return;  // killed while the disk was seeking
    }
    // Completion interrupt: build the reply and send it down the path,
    // charged to the path.
    Thread* t = live->GrabThread();
    t->Push(k->costs().fs_read_block_hit, my_pd,
            [this, k, my_pd, pm, path_id, stage_index, note, bytes] {
      // Revalidate again: the kill can land between the completion
      // interrupt and this work item's dispatch.
      Path* target = pm->FindLive(path_id);
      if (target == nullptr) {
        return;
      }
      Stage* target_stage = target->stage(stage_index);
      if (target_stage == nullptr) {
        return;
      }
      Message reply = Message::Alloc(k, target, my_pd, target->StageDomains(), bytes.size(), 0);
      if (!reply.valid()) {
        return;
      }
      reply.Append(my_pd, bytes.data(), bytes.size());
      k->Consume(bytes.size() * k->costs().per_byte_touch);
      reply.kind = MsgKind::kFileData;
      reply.note = note;
      target->ForwardDown(*target_stage, std::move(reply));
    }, /*yields=*/true);
  });
}

Cycles ScsiDiskModule::ProcessCost(Direction /*dir*/) const { return kernel()->costs().scsi_op; }

}  // namespace escort
